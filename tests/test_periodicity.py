"""Period measurement for partial-trace sequences and the p*e period
statement for trace-one witnesses."""

from random import Random

import pytest

from as90.errors import NoPeriodWithinBound, TraceNotOne
from as90.fields import frobenius, make_ctx, subfield_embed, trace
from as90.hilbert90 import find_trace_one
from as90.periodicity import (
    PartialTraceSeq,
    partial_trace_terms,
    sequence_period,
    verify_period_theorem,
)


# -- sequence_period on synthetic data ----------------------------------------

def test_constant_sequence():
    assert sequence_period([7] * 10, 5) == 1


def test_four_cycle():
    seq = [0, "w", 1, "w2"] * 2
    assert sequence_period(seq, 4) == 4


def test_minimality_over_divisor_preference():
    # period 3 inside bound 4: not a divisor, found by the linear scan
    assert sequence_period([0, 1, 2] * 3, 4) == 3


def test_too_few_terms():
    with pytest.raises(ValueError):
        sequence_period([0, 1, 0, 1], 4)
    with pytest.raises(ValueError):
        sequence_period([0, 1], 0)


def test_no_period_within_bound():
    with pytest.raises(NoPeriodWithinBound):
        sequence_period(list(range(8)), 4)


def test_period_of_prefix_not_tail():
    # a sequence can fail d on late terms only; all stored terms count
    seq = [0, 1, 0, 1, 0, 1, 0, 2]
    with pytest.raises(NoPeriodWithinBound):
        sequence_period(seq, 4)


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
