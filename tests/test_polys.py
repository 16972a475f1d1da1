"""Polynomial arithmetic over prime fields: parsing, division,
irreducibility, factorization, and the default-modulus rule."""

from functools import lru_cache
import operator
from itertools import islice, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from as90.errors import DivisionByZero, FactorizationTooHard, NotPrime, OrderTooLarge
from as90.polys import (
    PrimePoly,
    _F2Reducer,
    _Map,
    _Reducer,
    _count_vectors,
    _f2_mul,
    _fold_columns,
    _frobenius_columns,
    _reducer,
    _t_conjugates,
    default_modulus,
    distinct_degree_split,
    equal_degree_split,
    factor,
    gcd,
    is_irreducible,
    is_prime,
    squarefree_decomposition,
    xgcd,
)


def P(text, p=2):
    return PrimePoly.parse(text, p)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for m in range(2, 50):
        assert is_prime(m) == (m in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


def test_is_prime_strong_pseudoprime_to_bases_through_37():
    # psi_12, the least strong pseudoprime to every base 2..37; base 41
    # exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_beyond_proven_range():
    # bases 2..41 are proven exact only below psi_13, itself a strong
    # pseudoprime to all of them
    psi13 = 3317044064679887385961981
    assert not is_prime(psi13 - 1)
    for m in (psi13, 2**89 - 1):
        with pytest.raises(FactorizationTooHard):
            is_prime(m)


def test_parse_human_form():
    f = P("t^3+t+1")
    assert f.coeffs == (1, 1, 0, 1)
    assert str(f) == "t^3+t+1"
    g = P("2t^3+t+2", 3)
    assert g.coeffs == (2, 1, 0, 2)
    assert str(g) == "2t^3+t+2"
    assert P("2*t^3 + t + 2", 3) == g
    assert P("t^3 - t - 1", 3).coeffs == (2, 2, 0, 1)


def test_parse_coeff_form():
    f = PrimePoly.parse("p:2;coeffs:1,1,0,1")
    assert f == P("t^3+t+1")
    assert f.to_coeff_string() == "p:2;coeffs:1,1,0,1"
    # round trip
    assert PrimePoly.parse(f.to_coeff_string()) == f


def test_parse_degree_bound():
    # the degree is that of the terms nonzero mod p; that no list as long
    # as a huge degree is built is checked by CLI children with a capped
    # address space in test_cli.py
    assert PrimePoly.parse("t^8+t^4+t^3+t+1", 2, max_degree=8).degree == 8
    assert PrimePoly.parse("2t^100000+t+1", 2, max_degree=8) == P("t+1")
    assert PrimePoly.parse("p:3;coeffs:1,2,0,3", max_degree=2) == P("2t+1", 3)
    for text in ("t^9+1", "t^100000", "p:2;coeffs:1,0,0,0,0,0,0,0,0,1"):
        with pytest.raises(OrderTooLarge):
            PrimePoly.parse(text, 2, max_degree=8)
    with pytest.raises(NotPrime):
        PrimePoly.parse("p:4;coeffs:1,1")


def test_str_edge_cases():
    assert str(PrimePoly(2, (0,))) == "0"
    assert str(PrimePoly(2, (1,))) == "1"
    assert str(PrimePoly(3, (0, 2))) == "2t"
    assert str(PrimePoly(5, (3, 0, 1))) == "t^2+3"


def test_mul_reduce_known():
    # in F_8 presented mod t^3+t+1: t * t^2 = t^3 = t + 1
    m = P("t^3+t+1")
    prod = (P("t") * P("t^2")) % m
    assert prod == P("t+1")


def test_divmod_invariant_fixed():
    a = P("t^5+t^2+1")
    b = P("t^2+t")
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_arithmetic_skips_primality_test(monkeypatch):
    # results built from an already validated p must not re-run is_prime
    from as90 import polys

    a = PrimePoly(65521, [5, 65520, 3, 1])
    b = PrimePoly(65521, [7, 2, 1])
    calls = []

    def counting(m):
        calls.append(m)
        return is_prime(m)

    monkeypatch.setattr(polys, "is_prime", counting)
    product = a * b
    quo, rem = divmod(product + a, b)
    assert quo * b + rem == product + a
    assert (a - b) * 3 + (-a) == a * 2 - b * 3
    assert a.pow_mod(65521, b) == rem.pow_mod(65521, b)
    gcd(a, b), xgcd(a, b), a.monic().derivative()
    assert calls == []
    with pytest.raises(NotPrime):
        PrimePoly(4, [1])
    assert calls == [4]


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P("t"), PrimePoly.zero(2))


@settings(max_examples=60)
@given(st.integers(0, 2**6 - 1), st.integers(1, 2**6 - 1), st.sampled_from([2, 3, 5]))
def test_divmod_invariant(ia, ib, p):
    rng = Random(ia * 4096 + ib)
    a = PrimePoly(p, tuple(rng.randrange(p) for _ in range(7)))
    b = PrimePoly(p, tuple(rng.randrange(p) for _ in range(4)))
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 7]))
def test_ring_commutativity(seed, p):
    rng = Random(seed)
    a = PrimePoly(p, tuple(rng.randrange(p) for _ in range(6)))
    b = PrimePoly(p, tuple(rng.randrange(p) for _ in range(6)))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (a + b) == a * a + a * b


def test_gcd_xgcd():
    a = P("t^2+t+1") * P("t^3+t+1")
    b = P("t^2+t+1") * P("t+1")
    g = gcd(a, b)
    assert g.monic() == P("t^2+t+1")
    g2, s, t = xgcd(a, b)
    assert s * a + t * b == g2


def test_is_irreducible_known():
    assert is_irreducible(P("t^2+t+1"))
    assert is_irreducible(P("t^4+t+1"))
    assert not is_irreducible(P("t^4+t^2+1"))  # = (t^2+t+1)^2
    assert is_irreducible(P("t^3+2t+1", 3))
    assert not is_irreducible(P("t^3+t+1", 3))  # t=1 is a root
    assert is_irreducible(P("t", 2))
    assert not is_irreducible(PrimePoly.one(2))


def _irreducible_by_trial_division(f):
    """Reference for is_irreducible: f of degree n >= 1 is irreducible
    iff no monic g with 1 <= deg g <= n/2 divides it."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for low in product(range(f.p), repeat=d):
            if (f % PrimePoly(f.p, low + (1,))).is_zero():
                return False
    return True


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5), (5, 4)])
def test_is_irreducible_matches_trial_division(p, max_degree):
    for c in range(p):
        assert not is_irreducible(PrimePoly(p, (c,)))
    for n in range(1, max_degree + 1):
        for low in product(range(p), repeat=n):
            f = PrimePoly(p, low + (1,))
            want = _irreducible_by_trial_division(f)
            assert is_irreducible(f) == want, f
            for unit in range(2, p):
                assert is_irreducible(f * unit) == want, (f, unit)


def test_is_irreducible_rejects_squares_and_products():
    cases = [
        (P("t^2+t+1") * P("t^2+t+1"), False),
        (P("t^5+t^2+1") * P("t^5+t^2+1"), False),
        (P("t^5+t^2+1") * P("t^5+t^3+1"), False),
        (P("t^7+t+1") * P("t+1"), False),
        (P("t^2+1", 3) * P("t^2+1", 3), False),
        (P("2t^4+2t^2+2", 3) * P("t^3+2t+1", 3), False),
        (P("t^10+t^3+1"), True),
        (P("3t^3+3t+3", 5), True),
    ]
    for f, want in cases:
        assert is_irreducible(f) == want == _irreducible_by_trial_division(f), f


def test_irreducible_count_degree_4():
    # number of monic irreducible quartics over F_2 is (2^4 - 2^2)/4 = 3
    found = [
        PrimePoly(2, (c0, c1, c2, c3, 1))
        for c0 in (0, 1) for c1 in (0, 1) for c2 in (0, 1) for c3 in (0, 1)
        if is_irreducible(PrimePoly(2, (c0, c1, c2, c3, 1)))
    ]
    assert len(found) == 3
    assert P("t^4+t+1") in found
    assert P("t^4+t^3+1") in found
    assert P("t^4+t^3+t^2+t+1") in found


def test_default_modulus_rule():
    # lexicographically first irreducible, coefficients low-degree-first
    assert default_modulus(2, 1) == P("t")
    assert default_modulus(2, 2) == P("t^2+t+1")
    # degree 3 over F_2: (1,0,0) gives t^3+1 = (t+1)(t^2+t+1), then (1,0,1)
    assert default_modulus(2, 3) == P("t^3+t^2+1")
    assert default_modulus(3, 1) == P("t", 3)
    for p, n in [(2, 5), (3, 3), (5, 2), (7, 2)]:
        m = default_modulus(p, n)
        assert m.degree == n and is_irreducible(m)
        assert m.coeffs[-1] == 1


def test_default_modulus_is_lex_first():
    m = default_modulus(2, 4)
    # nothing lexicographically earlier is irreducible
    for c0 in range(2):
        for c1 in range(2):
            for c2 in range(2):
                for c3 in range(2):
                    cand = PrimePoly(2, (c0, c1, c2, c3, 1))
                    if cand.coeffs < m.coeffs and not cand.is_zero():
                        assert not is_irreducible(cand)


@pytest.mark.parametrize("p, n, text", [
    (2, 8, "t^8+t^7+t^5+t^4+1"),
    (2, 16, "t^16+t^15+t^13+t^11+1"),
    (2, 32, "t^32+t^30+t^29+t^25+1"),
    (2, 64, "t^64+t^63+t^61+t^60+1"),
    (3, 12, "t^12+t^11+t^8+1"),
    (3, 40, "t^40+t^37+t^36+1"),
    (5, 27, "t^27+t^26+1"),
    (7, 14, "t^14+3t^13+1"),
    (65521, 4, "t^4+3t^3+1"),
    (2**32 - 5, 2, "t^2+1"),
    (2, 100, "t^100+t^98+t^95+t^94+1"),
    (2, 128, "t^128+t^127+t^126+t^121+1"),
    (3, 81, "t^81+2t^80+2t^78+t^76+t^75+1"),
])
def test_default_modulus_pinned(p, n, text):
    assert default_modulus(p, n) == P(text, p)


def test_default_modulus_rejects():
    with pytest.raises(NotPrime):
        default_modulus(4, 2)


def test_factor_full_split():
    f = P("t^2+t+1") * P("t^3+t+1") * P("t+1") * P("t+1")
    fac = factor(f)
    assert fac == [
        (P("t+1"), 2),
        (P("t^2+t+1"), 1),
        (P("t^3+t+1"), 1),
    ]
    prod = PrimePoly.one(2)
    for g, e in fac:
        for _ in range(e):
            prod = prod * g
    assert prod == f


def test_factor_char_p_power():
    # (t^2+t+1)^2 = t^4+t^2+1 over F_2 exercises the p-th-root descent
    fac = factor(P("t^4+t^2+1"))
    assert fac == [(P("t^2+t+1"), 2)]


def test_squarefree_decomposition():
    f = P("t+1") * P("t+1") * P("t^2+t+1")
    parts = squarefree_decomposition(f)
    rebuilt = PrimePoly.one(2)
    for g, mult in parts:
        for _ in range(mult):
            rebuilt = rebuilt * g
    assert rebuilt == f.monic()


def test_factor_over_f3():
    f = P("t^3+2t+1", 3) * P("t+2", 3)
    fac = factor(f)
    assert (P("t+2", 3), 1) in fac
    assert (P("t^3+2t+1", 3), 1) in fac


def test_eval_and_derivative():
    f = P("t^3+2t+1", 3)
    assert f.eval(0) == 1
    assert f.eval(1) == (1 + 2 + 1) % 3
    assert f.derivative() == P("2", 3)  # 3t^2 + 2 = 2


def test_pow_mod():
    m = P("t^4+t^3+1")
    x = P("t")
    assert x.pow_mod(16, m) == x % m  # Frobenius fixed point: t^(2^4) = t
    assert x.pow_mod(15, m) == PrimePoly.one(2)  # order divides 15


# -- differential tests: the packed engine against schoolbook arithmetic ----
#
# The reference below is the coefficient-by-coefficient arithmetic that
# PrimePoly ran before its products and divisions were packed into big
# ints.  It works on plain tuples, so it shares no code with the engine.

DIFF_PRIMES = (2, 3, 5, 65521, 2**32 - 5, 2**61 - 1)


def ref_trim(cs, p):
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return ref_trim(out, p)


def ref_divmod(a, b, p):
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), tuple(a)
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] * inv_lead % p
        if c:
            quo[k] = c
            for i, bc in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bc) % p
    return ref_trim(quo, p), ref_trim(rem[: len(b) - 1], p)


def ref_add(a, b, p):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)], p)


def ref_monic(a, p):
    return ref_mul(a, (pow(a[-1], -1, p),), p) if a else a


def ref_gcd(a, b, p):
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    return ref_monic(a, p)


def ref_pow_mod(a, e, m, p):
    result, base = ref_divmod((1,), m, p)[1], ref_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = ref_divmod(ref_mul(result, base, p), m, p)[1]
        base = ref_divmod(ref_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def assert_invariants(f, p):
    """Coefficients are ints in range(p), with no trailing zero."""
    assert type(f) is PrimePoly and f.p == p
    assert type(f.coeffs) is tuple
    assert all(type(c) is int and 0 <= c < p for c in f.coeffs)
    assert not f.coeffs or f.coeffs[-1] != 0


@st.composite
def poly_pairs(draw, max_degree=300):
    """(p, a, b): two polynomials over one of DIFF_PRIMES, each of degree
    -1 (zero) to ``max_degree``.  Coefficients are uniform, extreme (0 or
    p - 1, which fills the packed slots fastest) or all p - 1."""
    p = draw(st.sampled_from(DIFF_PRIMES))
    seed = draw(st.integers(0, 2**32))
    rng = Random(seed)
    out = []
    for _ in range(2):
        degree = draw(st.integers(-1, max_degree))
        style = draw(st.sampled_from(("uniform", "extreme", "top")))
        if style == "uniform":
            cs = [rng.randrange(p) for _ in range(degree + 1)]
        elif style == "extreme":
            cs = [rng.choice((0, p - 1)) for _ in range(degree + 1)]
        else:
            cs = [p - 1] * (degree + 1)
        if cs:
            cs[-1] = cs[-1] or rng.randrange(1, p)
        out.append(tuple(cs))
    return p, out[0], out[1]


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_mul_matches_schoolbook(case):
    p, a, b = case
    fa, fb = PrimePoly(p, a), PrimePoly(p, b)
    for prod in (fa * fb, fb * fa):
        assert_invariants(prod, p)
        assert prod.coeffs == ref_mul(a, b, p)
    k = a[0] if a else 0
    for scaled in (fb * k, k * fb):
        assert_invariants(scaled, p)
        assert scaled.coeffs == ref_mul(b, (k,), p)


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_divmod_matches_schoolbook(case):
    p, a, b = case
    fa, fb = PrimePoly(p, a), PrimePoly(p, b)
    if not b:
        for op in (divmod, operator.mod, operator.floordiv):
            with pytest.raises(DivisionByZero):
                op(fa, fb)
        return
    want_q, want_r = ref_divmod(a, b, p)
    q, r = divmod(fa, fb)
    for f in (q, r, fa // fb, fa % fb):
        assert_invariants(f, p)
    assert (q.coeffs, r.coeffs) == (want_q, want_r)
    assert ((fa // fb).coeffs, (fa % fb).coeffs) == (want_q, want_r)


def test_divmod_edge_cases():
    for p in DIFF_PRIMES:
        a = PrimePoly(p, (1, 2, 3))
        long = PrimePoly(p, (p - 1,) * 6 + (2,))
        # a divisor longer than the dividend leaves the dividend whole
        assert divmod(a, long) == (PrimePoly.zero(p), a)
        # a constant divisor leaves no remainder
        q, r = divmod(long, PrimePoly(p, (p - 1,)))
        assert r.is_zero() and q * PrimePoly(p, (p - 1,)) == long
        # zero divided by anything nonzero
        assert divmod(PrimePoly.zero(p), a) == (PrimePoly.zero(p), PrimePoly.zero(p))
        with pytest.raises(DivisionByZero):
            a.pow_mod(3, PrimePoly.zero(p))


@settings(max_examples=60, deadline=None)
@given(poly_pairs())
def test_gcd_xgcd_match_schoolbook(case):
    p, a, b = case
    fa, fb = PrimePoly(p, a), PrimePoly(p, b)
    g = gcd(fa, fb)
    assert_invariants(g, p)
    assert g.coeffs == ref_gcd(a, b, p)
    g2, s, t = xgcd(fa, fb)
    for f in (g2, s, t):
        assert_invariants(f, p)
    assert g2 == g
    # Bezout, checked with the reference arithmetic
    assert ref_add(ref_mul(s.coeffs, a, p), ref_mul(t.coeffs, b, p), p) == g.coeffs


@settings(max_examples=60, deadline=None)
@given(poly_pairs(max_degree=24),
       st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 2**16),
                 st.integers(2**200 - 2**20, 2**200 + 2**20)))
def test_pow_mod_matches_schoolbook(case, e):
    p, a, m = case
    if not m:
        return
    got = PrimePoly(p, a).pow_mod(e, PrimePoly(p, m))
    assert_invariants(got, p)
    assert got.coeffs == ref_pow_mod(a, e, m, p)


@pytest.mark.parametrize("p, degree", [(2, 255), (2, 256), (2, 300), (3, 300),
                                       (2**61 - 1, 300)])
def test_packed_slot_boundaries(p, degree):
    # over F_2, 256 or more summed products no longer fit a 1-byte slot;
    # at p = 2^61 - 1 a slot is wider than 8 bytes
    top = PrimePoly(p, (p - 1,) * (degree + 1))
    square = ref_mul(top.coeffs, top.coeffs, p)
    assert (top * top).coeffs == square
    dividend = PrimePoly(p, square + (p - 1,))
    quo, rem = divmod(dividend, top)
    assert (quo.coeffs, rem.coeffs) == ref_divmod(dividend.coeffs, top.coeffs, p)


def test_default_modulus_cache_is_bounded(monkeypatch):
    # a long-lived process asking for many sizes keeps only the newest
    from as90 import polys

    monkeypatch.setattr(polys, "_DEFAULT_MODULUS_CACHE", {})
    limit = polys.DEFAULT_MODULUS_CACHE_LIMIT
    primes = [m for m in range(2, 10**4) if is_prime(m)][: limit + 5]
    for p in primes:
        assert default_modulus(p, 1) == PrimePoly.x(p)
        assert len(polys._DEFAULT_MODULUS_CACHE) <= limit
    assert list(polys._DEFAULT_MODULUS_CACHE) == [(p, 1) for p in primes[-limit:]]
    # an evicted size is searched again and gives the same answer
    assert default_modulus(2, 8) == P("t^8+t^7+t^5+t^4+1")
    assert (2, 8) in polys._DEFAULT_MODULUS_CACHE
    assert (primes[0], 1) not in polys._DEFAULT_MODULUS_CACHE


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_add_sub_neg_match_schoolbook(case):
    p, a, b = case
    fa, fb = PrimePoly(p, a), PrimePoly(p, b)
    neg_b = ref_mul(b, (p - 1,), p)
    for got, want in ((fa + fb, ref_add(a, b, p)), (fb + fa, ref_add(a, b, p)),
                      (fa - fb, ref_add(a, neg_b, p)), (-fb, neg_b),
                      (fa - fa, ()), (fa + (-fa), ())):
        assert_invariants(got, p)
        assert got.coeffs == want
    for k in (0, 1, p - 1, p, -1, 3 * p + 2, 2**70 + 5):
        assert_invariants(fb * k, p)
        assert (fb * k).coeffs == (k * fb).coeffs == ref_mul(b, (k % p,), p)


# -- F_2 division and gcd on the bits of ints, beyond the degrees above ----


def random_f2(rng, degree):
    return tuple(rng.randrange(2) for _ in range(degree)) + (1,)


def test_f2_divmod_long_dividend():
    # t^4097 - 1 by divisors of degree 1 to 64: quotients of 4000 bits
    rng = Random(4097)
    a = (1,) + (0,) * 4096 + (1,)
    fa = PrimePoly(2, a)
    for degree in range(1, 65):
        b = random_f2(rng, degree)
        fb = PrimePoly(2, b)
        want = ref_divmod(a, b, 2)
        q, r = divmod(fa, fb)
        for f in (q, r, fa // fb, fa % fb):
            assert_invariants(f, 2)
        assert (q.coeffs, r.coeffs) == ((fa // fb).coeffs, (fa % fb).coeffs) == want
        g = gcd(fa, fb)
        assert_invariants(g, 2)
        assert g.coeffs == ref_gcd(b, want[1], 2)


def test_f2_divmod_gcd_edge_cases():
    rng = Random(2)
    one, zero = PrimePoly(2, (1,)), PrimePoly.zero(2)
    a, b = PrimePoly(2, random_f2(rng, 300)), PrimePoly(2, random_f2(rng, 300))
    got = [divmod(a, one), divmod(a, b), divmod(a, a), divmod(one, one), divmod(zero, a)]
    assert got[0] == (a, zero)  # the divisor 1
    assert (got[1][0].coeffs, got[1][1].coeffs) == ref_divmod(a.coeffs, b.coeffs, 2)  # dq = 0
    assert got[2] == got[3] == (one, zero)  # equal operands
    assert got[4] == (zero, zero)
    gcds = [gcd(a, a), gcd(a, zero), gcd(zero, a), gcd(zero, zero), gcd(one, zero),
            gcd(a, a + one), gcd(a, b)]
    assert gcds[:6] == [a, a, a, zero, one, one]
    assert gcds[6].coeffs == ref_gcd(a.coeffs, b.coeffs, 2)
    xgcds = [xgcd(a, zero), xgcd(zero, a), xgcd(zero, zero)]
    assert xgcds == [(a, one, zero), (a, zero, one), (zero, one, zero)]
    for f in [f for pair in got for f in pair] + gcds + [f for t in xgcds for f in t]:
        assert_invariants(f, 2)


def test_f2_xgcd_bezout_at_large_degree():
    rng = Random(1000)
    g = PrimePoly(2, random_f2(rng, 37))
    a = g * PrimePoly(2, random_f2(rng, 1000))
    b = g * PrimePoly(2, random_f2(rng, 1010))
    d, s, t = xgcd(a, b)
    for f in (d, s, t):
        assert_invariants(f, 2)
    assert d == gcd(a, b) and d.coeffs == ref_gcd(a.coeffs, b.coeffs, 2)
    assert (d // g) * g == d
    assert ref_add(ref_mul(s.coeffs, a.coeffs, 2), ref_mul(t.coeffs, b.coeffs, 2), 2) == d.coeffs


# -- arithmetic mod a fixed polynomial: the reducer, Ben-Or and splitting ----
#
# The references below run on PrimePoly ``*`` and ``%`` (one packed
# product, packed long division), both checked against the schoolbook
# oracle above: square-and-multiply ``pow_mod``, and distinct- and
# equal-degree splitting one degree at a time, as these ran before
# arithmetic mod a fixed polynomial moved to the reducer.


def ref_pow(a, e, m):
    result, base = PrimePoly._of(a.p, (1,)) % m, a % m
    while e:
        if e & 1:
            result = result * base % m
        base = base * base % m
        e >>= 1
    return result


def ref_distinct_degree_split(f):
    p = f.p
    x = PrimePoly._of(p, (0, 1))
    h, rest, d = x % f, f, 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            yield rest, rest.degree
            return
        h = ref_pow(h, p, rest)
        g = gcd(rest, h - x)
        if g.degree > 0:
            yield g, d
            rest = rest // g
            h = h % rest


def ref_equal_degree_split(f, d, rng):
    p = f.p
    pieces, done = [f], []
    while pieces:
        g = pieces.pop()
        if g.degree == d:
            done.append(g)
            continue
        u = PrimePoly._of(p, [rng.randrange(p) for _ in range(g.degree)])
        if u.degree < 1:  # a constant splits nothing; g waits for the next draw
            pieces.append(g)
            continue
        if p == 2:
            w = acc = u % g
            for _ in range(d - 1):
                w = w * w % g
                acc = acc + w
            h = gcd(g, acc)
        else:
            h = gcd(g, ref_pow(u, (p**d - 1) // 2, g) - PrimePoly._of(p, (1,)))
        if 0 < h.degree < g.degree:
            pieces += [h, g // h]
        else:
            pieces.append(g)
    return sorted(done, key=lambda q: q.coeffs)


def ref_factor(f):
    rng = Random(0xA590)
    out = []
    for squarefree, mult in squarefree_decomposition(f):
        for bucket, d in ref_distinct_degree_split(squarefree):
            out += [(irr, mult) for irr in ref_equal_degree_split(bucket, d, rng)]
    return sorted(out, key=lambda pair: (pair[0].degree, pair[0].coeffs))


def random_irreducible(p, degree, rng):
    while True:
        f = PrimePoly(p, [rng.randrange(p) for _ in range(degree)] + [1])
        if next(ref_distinct_degree_split(f))[1] == degree:
            return f


@st.composite
def residue_cases(draw, max_degree=300):
    """(p, f, a, b): a nonzero f of degree 1 to ``max_degree`` over one of
    DIFF_PRIMES, monic or not, and two residues mod f (degree below that
    of f, zero included), coefficients uniform or extreme."""
    p = draw(st.sampled_from(DIFF_PRIMES))
    n = draw(st.integers(1, max_degree))
    rng = Random(draw(st.integers(0, 2**32)))
    style = draw(st.sampled_from(("uniform", "extreme", "top")))

    def coeffs(k):
        if style == "uniform":
            return [rng.randrange(p) for _ in range(k)]
        if style == "extreme":
            return [rng.choice((0, p - 1)) for _ in range(k)]
        return [p - 1] * k

    lead = draw(st.sampled_from((1, p - 1, rng.randrange(1, p))))
    f = tuple(coeffs(n)) + (lead,)
    a, b = (ref_trim(coeffs(draw(st.integers(0, n))), p) for _ in range(2))
    return p, f, a, b


@settings(max_examples=200, deadline=None)
@given(residue_cases())
def test_reducer_matches_schoolbook(case):
    p, f, a, b = case
    red = _Reducer(PrimePoly(p, f))
    got = red.mul(a, b)
    assert len(got) <= len(f) - 1 and all(0 <= c < p for c in got)
    assert ref_trim(got, p) == ref_divmod(ref_mul(a, b, p), f, p)[1]
    assert ref_trim(red.mul(a, a), p) == ref_divmod(ref_mul(a, a, p), f, p)[1]


@settings(max_examples=60, deadline=None)
@given(residue_cases(max_degree=24),
       st.one_of(st.sampled_from((0, 1, 2, 3)), st.integers(0, 2**16),
                 st.integers(2**200 - 2**20, 2**200 + 2**20)))
def test_reducer_pow_matches_schoolbook(case, e):
    p, f, a, _ = case
    got = _Reducer(PrimePoly(p, f)).pow(a, e)
    assert ref_trim(got, p) == ref_pow_mod(a, e, f, p)


@settings(max_examples=40, deadline=None)
@given(residue_cases(),
       st.one_of(st.sampled_from((0, 1, 2, 3)), st.integers(0, 2**16),
                 st.integers(2**200 - 2**20, 2**200 + 2**20)))
def test_pow_mod_matches_packed_division_at_large_degree(case, e):
    # degrees up to 300 and exponents near 2^200; the reference is
    # square-and-multiply on packed long division
    p, f, a, b = case
    base, mod = PrimePoly(p, b + a), PrimePoly(p, f)  # base may exceed mod
    got = base.pow_mod(e, mod)
    assert_invariants(got, p)
    assert got == ref_pow(base, e, mod)


@pytest.mark.parametrize("p, degree", [(2, 1), (2, 2), (2, 255), (2, 256), (2, 300),
                                       (3, 300), (65521, 1), (2**61 - 1, 300)])
def test_reducer_slot_boundaries(p, degree):
    # all-(p-1) residues fill every slot of the product and of both
    # Barrett products; over F_2 a 256-slot product no longer fits bytes
    f = (p - 1,) * (degree + 1)
    top = (p - 1,) * degree
    red = _Reducer(PrimePoly(p, f))
    assert ref_trim(red.mul(top, top), p) == ref_divmod(ref_mul(top, top, p), f, p)[1]
    assert ref_trim(red.pow(top, 5), p) == ref_pow_mod(top, 5, f, p)


def test_pow_mod_degenerate_moduli():
    for p in DIFF_PRIMES:
        a = PrimePoly(p, (3, 1, 4, 1, 5))
        for unit in (1, p - 1):
            assert a.pow_mod(7, PrimePoly(p, (unit,))) == PrimePoly.zero(p)
        linear = PrimePoly(p, (2, 1))
        assert a.pow_mod(0, linear) == PrimePoly.one(p)
        assert a.pow_mod(3, linear) == PrimePoly(p, (a.eval(p - 2) ** 3,))
        assert PrimePoly.zero(p).pow_mod(0, linear) == PrimePoly.one(p)
        assert PrimePoly.zero(p).pow_mod(5, linear) == PrimePoly.zero(p)


#: Degrees of the irreducible factors of squarefree test polynomials.
#: Ben-Or takes the degrees in blocks (1, 2, 3-4, 5-8, ...; each capped
#: at about the square root of the degree left), so these put factors
#: first, last and in the middle of a block, several in one block, and
#: leave nothing after a block (the part left over reaches 1).
SPLIT_DEGREES = [(1,), (2,), (5,), (1, 1), (1, 2), (3, 3), (3, 4), (2, 5), (4, 4, 6, 7),
                 (5, 5, 6, 6), (5, 6, 7, 8), (6, 7), (1, 2, 3, 4, 5, 6), (9, 9, 11),
                 (2, 9, 12), (6, 10, 12), (8, 8, 8), (13, 13), (17, 20)]


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
@pytest.mark.parametrize("degrees", SPLIT_DEGREES)
def test_distinct_degree_split_matches_unblocked(p, degrees):
    if p == 65521 and sum(degrees) > 24:
        return
    rng = Random(f"{p}/{degrees}")
    while True:
        factors = [random_irreducible(p, d, rng) for d in degrees]
        if len(set(factors)) == len(factors):
            break
    f = PrimePoly.one(p)
    for g in factors:
        f = f * g
    got = list(distinct_degree_split(f))
    assert got == list(ref_distinct_degree_split(f))
    product = PrimePoly.one(p)
    for piece, d in got:
        assert piece.degree >= 1 and piece.is_monic() and piece.degree % d == 0
        product = product * piece
    assert product == f
    assert sorted(d for piece, d in got for _ in range(piece.degree // d)) == sorted(degrees)
    assert is_irreducible(f) == (len(degrees) == 1)
    assert factor(f) == ref_factor(f) == sorted(((g, 1) for g in factors),
                                                key=lambda pair: (pair[0].degree, pair[0].coeffs))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 3, 5, 65521)), st.integers(1, 48), st.integers(0, 2**32))
def test_factor_matches_unblocked_reference(p, degree, seed):
    rng = Random(seed)
    if p > 5:
        degree = 1 + degree % 16
    f = PrimePoly(p, [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)])
    got = factor(f)
    assert got == ref_factor(f)
    assert all(g.degree >= 1 for g, _ in got)
    assert is_irreducible(f) == (got == [(f.monic(), 1)])
    for squarefree, _ in squarefree_decomposition(f):
        assert list(distinct_degree_split(squarefree)) == list(
            ref_distinct_degree_split(squarefree))


@pytest.mark.parametrize("p, d, count", [(2, 1, 2), (2, 4, 3), (2, 8, 6), (2, 16, 3), (3, 3, 4),
                                         (5, 2, 5), (65521, 2, 3)])
def test_equal_degree_split_matches_reference(p, d, count):
    rng = Random(f"{p}/{d}/{count}")
    factors = set()
    while len(factors) < count:
        factors.add(random_irreducible(p, d, rng))
    f = PrimePoly.one(p)
    for g in factors:
        f = f * g
    got = equal_degree_split(f, d, Random(0xA590))
    assert got == ref_equal_degree_split(f, d, Random(0xA590))
    assert got == sorted(factors, key=lambda q: q.coeffs)


def test_equal_degree_split_keeps_a_piece_whose_draw_is_constant():
    # a constant splitting element splits nothing, and the piece must wait
    # for the next draw: over F_2 half the draws for t^2 + t are constant,
    # and over F_3 the factor t^2 of this polynomial used to vanish
    for seed in range(8):
        assert equal_degree_split(P("t^2+t"), 1, Random(seed)) == [P("t"), P("t+1")]
        assert equal_degree_split(P("t^3-t", 3), 1, Random(seed)) == [
            P("t", 3), P("t+1", 3), P("t+2", 3)]
    f = P("t^28+2t^27+2t^26+2t^24+2t^22+t^21+2t^20+2t^19+2t^17+2t^15+2t^14+t^11"
          "+t^10+t^9+t^8+t^6+t^5+t^4+t^3+2t^2", 3)
    got = factor(f)
    assert (P("t", 3), 2) in got and (P("t+2", 3), 2) in got
    assert multiply_out(got, 3) == f


def multiply_out(factors, p):
    out = PrimePoly.one(p)
    for g, k in factors:
        for _ in range(k):
            out = out * g
    return out


# -- the reducer interface, on bit ints over F_2 and packed tuples otherwise --


def all_ones(n):
    return (1,) * n


@pytest.mark.parametrize("degree", [1, 8, 254, 255, 256, 257, 600])
def test_f2_residue_products_at_slot_widths(degree):
    # a byte slot of the carry-less product holds 255 ones: operands of
    # 255, 256 and 257 bits sit on either side of the wider slot.  Every
    # result is checked against the packed reducer and PrimePoly * and %.
    rng = Random(degree)
    mods = [all_ones(degree + 1), random_f2(rng, degree)]
    operands = [all_ones(degree), tuple(rng.randrange(2) for _ in range(degree)),
                (1,), (0, 1)]
    for fc in mods:
        f = PrimePoly(2, fc)
        bits, packed = _reducer(f), _Reducer(f)
        assert type(bits) is _F2Reducer
        for a, b in product(operands, repeat=2):
            pa, pb = PrimePoly(2, a), PrimePoly(2, b)
            want = pa * pb % f
            x, y = bits.lift(pa), bits.lift(pb)
            assert bits.poly(_f2_mul(x, y)) == (pa % f) * (pb % f)
            assert bits.poly(bits.mul(x, y)) == want
            assert packed.poly(packed.mul(packed.lift(pa), packed.lift(pb))) == want
            assert bits.poly(bits.square(x)) == pa * pa % f
            assert bits.poly(bits.pow(x, 5)) == packed.poly(packed.pow(packed.lift(pa), 5))


def test_f2_carryless_product_at_slot_limits():
    # all-ones operands around the one- and two-byte slot limits:
    # coefficient k of the product is the parity of the number of ways to
    # write k = i + j with i < la and j < lb
    for la, lb in ((255, 255), (256, 256), (257, 600), (600, 600),
                   (65535, 65535), (65536, 70000)):
        want = "".join("01"[min(k, la - 1) - max(0, k - lb + 1) + 1 & 1]
                       for k in range(la + lb - 2, -1, -1))
        assert _f2_mul(int("1" * la, 2), int("1" * lb, 2)) == int(want, 2), (la, lb)
        if la <= 600:
            assert PrimePoly(2, all_ones(la)) * PrimePoly(2, all_ones(lb)) == PrimePoly(
                2, [int(c) for c in reversed(want)])


@settings(max_examples=150, deadline=None)
@given(residue_cases(), st.one_of(st.sampled_from((0, 1, 2, 3)), st.integers(0, 2**70)))
def test_reducer_interface_matches_prime_poly(case, e):
    # the same calls on either reducer give PrimePoly's answers
    p, fc, a, b = case
    f, pa, pb = PrimePoly(p, fc), PrimePoly(p, a), PrimePoly(p, b)
    red = _reducer(f)
    assert (type(red) is _F2Reducer) == (p == 2)
    x, y = red.lift(pa), red.lift(pb)
    assert red.poly(x) == pa % f and red.poly(red.lift(pa * pb)) == pa * pb % f
    assert red.poly(red.mul(x, y)) == pa * pb % f
    assert red.poly(red.square(x)) == pa * pa % f
    assert red.poly(red.add(x, y)) == (pa + pb) % f
    assert red.gcd(x) == gcd(f, pa % f)
    assert red.coprime(x) == (gcd(f, pa % f).degree == 0)
    one = PrimePoly.one(p)
    assert red.is_one(red.mul(x, y)) == (pa * pb % f == one)
    assert red.is_one(red.lift(one)) and not red.is_one(red.lift(PrimePoly.zero(p)))
    if f.degree >= 2:
        assert red.poly(red.minus_t(x)) == pa % f - PrimePoly.x(p)
    if f.degree <= 24:
        assert red.poly(red.pow(x, e)) == pa.pow_mod(e, f) == ref_pow(pa, e, f)
        assert red.is_one(red.pow(x, e)) == (pa.pow_mod(e, f) == one)
    t = red.lift(PrimePoly.x(p))
    if f.degree <= 24:
        assert red.poly(red.pow(t, e)) == ref_pow(PrimePoly.x(p), e, f)
    r = red.poly(red.random(Random(e)))
    assert r.degree < f.degree


def test_reducer_refuses_the_zero_modulus():
    for p in (2, 3):
        with pytest.raises(DivisionByZero):
            _reducer(PrimePoly.zero(p)).lift(PrimePoly.x(p))


# -- exact oracles: the number of irreducibles, and factor multiplied out ----


def necklace_count(p, n):
    """(1/n) sum_{d | n} mu(d) p^(n/d), the number of monic irreducibles
    of degree n over F_p."""
    def mu(d):
        out, k = 1, 2
        while k * k <= d:
            if d % k == 0:
                d //= k
                if d % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if d > 1 else out

    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p, top", [(2, 12), (3, 6)])
def test_irreducible_counts_match_necklace_formula(p, top):
    for n in range(1, top + 1):
        count = sum(is_irreducible(PrimePoly(p, rest + (1,)))
                    for rest in product(range(p), repeat=n))
        assert count == necklace_count(p, n), (p, n)


def test_f2_factor_multiplies_back():
    rng = Random(64)
    for _ in range(200):
        f = PrimePoly(2, random_f2(rng, rng.randrange(1, 65)))
        got = factor(f)
        assert all(is_irreducible(g) for g, _ in got)
        assert multiply_out(got, 2) == f


# -- the Frobenius map h -> h^p mod f, and Ben-Or's test proper -------------


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**32 - 5, 2**61 - 1])
@pytest.mark.parametrize("n", [1, 2, 7, 12, 25])
def test_frobenius_matches_powering(p, n):
    # irreducible, reducible (a product, a square, a multiple of t) and
    # non-monic moduli; the map is applied to t, to residues with every
    # slot at p - 1, to zero and one, to seeded residues, and twice in a row
    rng = Random(f"{p}/{n}")
    half = (n + 1) // 2
    a = PrimePoly(p, [rng.randrange(p) for _ in range(half)] + [1])
    b = PrimePoly(p, [rng.randrange(p) for _ in range(n - half)] + [1])
    moduli = [random_irreducible(p, n, rng), a * b,
              PrimePoly(p, [0] + [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)])]
    if n % 2 == 0:
        moduli.append(a * a if a.degree * 2 == n else a * b)
    for f in moduli:
        assert f.degree == n
        red = _reducer(f)
        frob = red.frobenius()
        residues = [PrimePoly.x(p) % f, PrimePoly(p, [p - 1] * n), PrimePoly.zero(p),
                    PrimePoly.one(p)] + [PrimePoly(p, [rng.randrange(p) for _ in range(n)])
                                         for _ in range(4)]
        for g in residues:
            h = red.lift(g)
            want = red.pow(h, p)
            assert red.poly(frob(h)) == red.poly(want) == ref_pow(g, p, f), (f, g)
            assert red.poly(frob(frob(h))) == red.poly(red.pow(want, p)), (f, g)


def test_frobenius_matches_squaring_over_f2():
    rng = Random(2)
    for n in (1, 2, 7, 12, 25, 64):
        red = _reducer(PrimePoly(2, random_f2(rng, n)))
        frob = red.frobenius()
        for _ in range(8):
            h = rng.getrandbits(n)
            assert frob(h) == red.square(h) == red.pow(h, 2)


# -- the tables of a modulus: fold columns, Frobenius columns, conjugates of t


def padded(g, n):
    """The coefficient tuple of g, zero-padded to length n."""
    return g.coeffs + (0,) * (n - len(g.coeffs))


@lru_cache(maxsize=None)
def builder_moduli(p, n):
    """The default modulus of degree n over F_p and a seeded dense monic
    f that is not: over odd p every coefficient is nonzero, over F_2 the
    constant and at least half of the others.  The tables need no
    irreducible f."""
    rng = Random(f"builders/{p}/{n}")
    default = default_modulus(p, n)
    while True:
        f = PrimePoly(p, [rng.randrange(p > 2, p) for _ in range(n)] + [1])
        if (p > 2 or f[0] and 2 * sum(f.coeffs) >= n + 2) and f != default:
            return default, f


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**32 - 5])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_fold_columns_match_division(p, n):
    for f in builder_moduli(p, n):
        cols = _fold_columns(f)
        assert cols == [padded(PrimePoly.x(p, n + k) % f, n) for k in range(n - 1)], f
        assert all(type(c) is tuple for c in cols)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**32 - 5])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
def test_frobenius_columns_match_powering(p, n):
    # column i of power j is t^(i p^j) mod f, on the reducer's products
    for f in builder_moduli(p, n):
        red = _Reducer(f)
        for j in sorted({0, 1, 2, n - 1}):
            x = red.lift(PrimePoly.x(p).pow_mod(p**j, f))
            frob = _frobenius_columns(p, x, n, red.mul)
            assert [tuple(frob.unpack(c, n)) for c in frob.cols] == [
                padded(PrimePoly.x(p).pow_mod(i * p**j, f), n) for i in range(n)], (f, j)


def schoolbook_apply(cols, v, p, n):
    """sum_c v_c cols_c mod p, entry by entry."""
    return tuple(sum(c[r] * x for c, x in zip(cols, v)) % p for r in range(n))


def map_cases():
    """(p, n, k): n entries a column, k columns; 255 and 256 columns over
    F_2 need two-byte slots, since v plus w sums k + 1 ones."""
    for p in (2, 3, 5, 65521, 2**32 - 5, 2**64 - 59):
        for n in (1, 4, 9):
            for k in sorted({1, 2, n}):
                yield p, n, k
    for k in (254, 255, 256):
        yield 2, 3, k


@pytest.mark.parametrize("p, n, k", list(map_cases()))
def test_map_matches_schoolbook(p, n, k):
    # every entry p - 1 makes each slot sum as large as it can be
    rng = Random(f"map/{p}/{n}/{k}")

    def vec(length):
        return tuple(rng.randrange(p) for _ in range(length))

    for cols in ([(p - 1,) * n] * k, [vec(n) for _ in range(k)]):
        m = _Map(p, n, cols)
        assert m.rows() == list(zip(*cols))
        for v in ((p - 1,) * k, vec(k)):
            want = schoolbook_apply(cols, v, p, n)
            assert m.apply(v) == want and type(m.apply(v)) is tuple
            for w in ((p - 1,) * n, vec(n)):
                assert m.apply_add(v, w) == tuple((a + b) % p for a, b in zip(want, w))
        for inner in ([(p - 1,) * k] * k, [vec(k) for _ in range(k)]):
            composed = m @ _Map(p, k, inner)
            assert composed.n == n and len(composed.cols) == k
            assert composed.rows() == list(zip(*(schoolbook_apply(cols, c, p, n) for c in inner)))
    # the fold map of a field of degree 1 has no column
    assert _Map(p, n, []).apply_add((), (p - 1,) * n) == (p - 1,) * n


@pytest.mark.parametrize("p, d", [(2, 1), (2, 3), (2, 8), (2, 16), (2, 32), (3, 1), (3, 5),
                                  (3, 12), (5, 7), (65521, 1), (65521, 4), (65521, 12),
                                  (65521, 32), (2**32 - 5, 8)])
def test_t_conjugates_match_powering(p, d):
    # over F_2 the step is a squaring; over F_65521 it is the matrix up to
    # degree 25 and a power at 32
    for g in builder_moduli(p, d):
        assert _t_conjugates(g) == [padded(PrimePoly.x(p).pow_mod(p**j, g), d)
                                    for j in range(d)], g


@pytest.mark.parametrize("p, top", [(2, 8), (3, 8), (5, 5)])
def test_is_irreducible_matches_first_distinct_degree_piece(p, top):
    # Ben-Or stopped at the first block that shares a factor with f,
    # against the first piece of the one-degree-at-a-time split, on every
    # monic f of degree 1 .. top, squares and repeated factors included
    for n in range(1, top + 1):
        for rest in product(range(p), repeat=n):
            f = PrimePoly(p, rest + (1,))
            want = next(ref_distinct_degree_split(f))[1] == n
            assert is_irreducible(f) == want, f
            assert (next(distinct_degree_split(f))[1] == n) == want, f


def test_count_vectors_is_lazy():
    # the first vectors over a 64-bit prime come without materializing
    # range(p), as itertools.product would before yielding anything
    assert list(islice(_count_vectors(2**64 - 59, 4), 3)) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2)]
