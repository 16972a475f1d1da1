"""Period measurement for partial-trace sequences and the p*e period
statement for trace-one witnesses."""

import math
from random import Random

import pytest

from as90.errors import TraceNotOne
from as90.fields import frobenius, make_ctx, subfield_embed, trace
from as90.hilbert90 import find_trace_one, partial_trace_sequence
from as90.intfactor import p_part
from as90.periodicity import (
    PartialTraceSeq,
    partial_sum_period,
    partial_trace_terms,
    verify_period_theorem,
)
from period_scan import naive_period


# -- the reference scan on synthetic data ----------------------------------------

def test_constant_sequence():
    assert naive_period([7] * 10, 5) == 1


def test_four_cycle():
    seq = [0, "w", 1, "w2"] * 2
    assert naive_period(seq, 4) == 4


def test_minimality_over_divisor_preference():
    # period 3 inside bound 4, though 3 does not divide it
    assert naive_period([0, 1, 2] * 3, 4) == 3


def test_no_period_within_bound():
    assert naive_period(list(range(8)), 4) is None


def test_period_of_prefix_not_tail():
    # a sequence can fail d on late terms only; all stored terms count
    seq = [0, 1, 0, 1, 0, 1, 0, 2]
    assert naive_period(seq, 4) is None


# -- partial_trace_terms -------------------------------------------------------

def test_terms_definition():
    # x_0 = 0 and consecutive differences walk the conjugates of z
    ctx = make_ctx(3, 4)
    rng = Random(31)
    z = ctx.random_element(rng)
    terms = partial_trace_terms(z, 10)
    assert terms[0].is_zero()
    w = z
    for i in range(9):
        assert terms[i + 1] - terms[i] == w
        w = frobenius(w, 1)


def test_terms_full_trace_at_m():
    # x_m is the full trace of z
    ctx = make_ctx(2, 6)
    rng = Random(32)
    z = ctx.random_element(rng)
    terms = partial_trace_terms(z, ctx.m + 1)
    assert terms[ctx.m] == trace(z, 1)


def test_seq_container_protocol():
    ctx = make_ctx(2, 2)
    w = ctx.gen()
    seq = PartialTraceSeq(
        terms=partial_trace_terms(w, 8), p=2, e=2, period=4
    )
    assert len(seq) == 8
    assert seq[1] == w


# -- verify_period_theorem -----------------------------------------------------

def test_f4_omega_period_four():
    ctx = make_ctx(2, 2)
    rep = verify_period_theorem(ctx.gen())
    assert rep.period == 4 == rep.expected_period
    assert rep.e == 2 and rep.n_p == 2
    assert rep.interior_nonzero and rep.passed
    assert rep.to_dict()["pass"] is True


def test_prime_field_period_p():
    ctx = make_ctx(3, 1)
    rep = verify_period_theorem(ctx.one())
    assert rep.period == 3 and rep.e == 1 and rep.passed


def test_embedded_low_degree_witness():
    # a degree-4 element inside GF(2^12): period 8 despite the big field
    small = make_ctx(2, 4, modulus="t^4+t^3+1")
    big = make_ctx(2, 12)
    z = subfield_embed(small.gen(), big)
    assert trace(z, 1) == 1
    rep = verify_period_theorem(z)
    assert rep.e == 4 and rep.period == 8 and rep.passed


def test_trace_not_one_rejected():
    ctx = make_ctx(2, 4)
    with pytest.raises(TraceNotOne):
        verify_period_theorem(ctx.zero())


def test_period_statement_sampled():
    # across several fields and witness degrees: period exactly p*e,
    # n_p divides e, interior terms nonzero
    rng = Random(33)
    cases = [(2, 4, None), (2, 6, 6), (3, 3, 3), (3, 4, 2), (5, 2, 2), (7, 2, 2)]
    for p, n, target in cases:
        ctx = make_ctx(p, n)
        wit = find_trace_one(
            ctx, target_e=target, randomize=target is not None,
            seed=rng.randrange(2**30),
        )
        rep = verify_period_theorem(wit.z)
        assert rep.passed, (p, n, target, rep)
        assert rep.period == p * wit.e
        assert wit.e % rep.n_p == 0


def test_relative_extension_period():
    # base GF(4): q = 4 but the period statement still runs over p = 2
    ctx = make_ctx(2, 8, f=2)
    wit = find_trace_one(ctx)
    rep = verify_period_theorem(wit.z)
    assert rep.n_p == 4  # p-part of m = 4 over p = 2
    assert rep.period == 2 * wit.e
    assert rep.passed


# -- partial_sum_period against stored terms -----------------------------------

@pytest.mark.parametrize("p,n,f", [
    (2, 4, 1), (2, 6, 1), (2, 8, 2), (2, 12, 1), (3, 6, 1), (3, 9, 1), (3, 12, 2),
    (5, 5, 1), (5, 10, 1), (5, 4, 2), (7, 7, 1), (7, 4, 2),
    (65521, 1, 1), (65521, 2, 1), (65521, 2, 2),
])
def test_partial_sum_period_matches_stored_scan(p, n, f):
    # p*m is always a period, so 2*p*m stored terms decide the period;
    # every witness degree find_trace_one offers, then random z of any
    # trace (the period is p*deg z when the trace is nonzero; at p = 65521
    # the witnesses already take seconds)
    ctx = make_ctx(p, n, f=f)
    m, m_p = ctx.m, p_part(ctx.m, p)
    rng = Random(35 + p + n + f)
    zs = [find_trace_one(ctx, target_e=e, randomize=True, seed=rng.randrange(2**30)).z
          for e in range(m_p, m + 1, m_p) if m % e == 0]
    zs += [ctx.random_element(rng) for _ in range(3 if p < 100 else 0)]
    for z in zs:
        terms = [x.coeffs for x in partial_trace_terms(z, 2 * p * m)]
        want = naive_period(terms, p * m)
        assert partial_sum_period(z) == want, (z, want)
        if trace(z, f) == 1:
            assert want == verify_period_theorem(z).period
        # sigma^k for every k prime to m: its own sums, the same rule
        for k in (k for k in range(1, m + 1) if math.gcd(k, m) == 1):
            terms = [x.coeffs for x in partial_trace_terms(z, 2 * p * m, k)]
            want = naive_period(terms, p * m)
            assert partial_trace_sequence(z, k=k).period == want, (z, k, want)
