"""Field contexts, element arithmetic, Frobenius/trace machinery,
subfields, embeddings, discrete logs, and root extraction."""

from functools import lru_cache
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from as90.errors import (
    BadSubfieldStep,
    CtxMismatch,
    DivisionByZero,
    FieldTooLarge,
    NoEmbedding,
    NotInSubgroup,
    NotPrime,
    OrderTooLarge,
    ReducibleModulus,
    ZeroElement,
)
from as90 import fields
from as90.artin_schreier import find_zeta
from as90.bigpoly import TABLE_ROWS, classify, factor_cyclotomic, ord_mod
from as90.fields import (
    FieldElem,
    degree_over_subfield,
    discrete_log,
    element_order,
    frobenius,
    make_ctx,
    nullspace,
    solve_in_span,
    subfield_elements,
    subfield_embed,
    subfield_section,
    trace,
)
from as90.intfactor import p_part
from as90.periodicity import partial_trace_terms
from as90.polys import PrimePoly, _Map, _count_vectors, is_irreducible, is_prime


F4 = make_ctx(2, 2)          # modulus t^2+t+1, the only choice
F8 = make_ctx(2, 3, modulus="t^3+t+1")
F16 = make_ctx(2, 4, modulus="t^4+t^3+1")


def rand_elems(ctx, count, seed=0):
    rng = Random(seed)
    return [ctx.random_element(rng) for _ in range(count)]


# -- construction -------------------------------------------------------------

def test_make_ctx_validation():
    with pytest.raises(NotPrime):
        make_ctx(6, 2)
    with pytest.raises(ReducibleModulus):
        make_ctx(2, 4, modulus="t^4+t^2+1")
    with pytest.raises(BadSubfieldStep):
        make_ctx(2, 6, f=4)
    with pytest.raises(FieldTooLarge):
        make_ctx(2, 65)
    with pytest.raises(OrderTooLarge):  # the degree is above n
        make_ctx(2, 8, modulus="t^100000+t^4+t^3+t^2+1")


def test_ctx_basics():
    assert F4.q == 2 and F4.m == 2 and F4.order == 4
    ctx = make_ctx(2, 12, f=3)
    assert ctx.q == 8 and ctx.m == 4
    assert "GF(2^12)" in ctx.describe()
    assert make_ctx(2, 2) is make_ctx(2, 2) == F4  # cached


def test_ctx_is_an_immutable_hashable_value():
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    twin = fields.FieldCtx(2, 4, ctx.modulus, 1, {"filled": True})
    assert twin == ctx and hash(twin) == hash(ctx) and twin is not ctx
    assert fields.FieldCtx(2, 4, ctx.modulus, 2) != ctx and ctx != (2, 4, ctx.modulus, 1)
    assert {ctx: 1}[twin] == 1
    assert repr(ctx) == "FieldCtx(p=2, n=4, modulus=PrimePoly(2, t^4+t^3+1), f=1)"
    with pytest.raises(AttributeError):
        ctx.p = 3
    with pytest.raises(AttributeError):
        del ctx.n
    assert ctx.p == 2 and ctx.n == 4


def test_prime_field_degenerate():
    f2 = make_ctx(2, 1)
    assert f2.modulus == PrimePoly.parse("t", 2)
    a = f2.elem(1)
    assert frobenius(a, 1) == a
    assert trace(a) == a
    assert a + a == f2.zero()


def test_mixed_ctx_rejected():
    other = make_ctx(2, 3)  # default modulus differs from F8's
    with pytest.raises(CtxMismatch):
        F4.gen() + other.gen()
    with pytest.raises(CtxMismatch):
        make_ctx(2, 3).gen() * F8.gen()


# -- arithmetic ---------------------------------------------------------------

def test_f4_multiplication_table():
    w = F4.gen()
    assert w * w == w + 1          # ω² = ω + 1
    assert w ** 3 == 1
    assert w * w * w == F4.one()


def test_f8_reduce():
    # t * t^2 = t^3 = t + 1 mod t^3+t+1
    t = F8.gen()
    assert t * (t * t) == t + 1


def test_int_coercion():
    w = F4.gen()
    assert w + 0 == w
    assert 1 + w == w + F4.one()
    assert 2 * w == F4.zero()
    assert (3 * F8.one()).coeffs == F8.one().coeffs


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_field_axioms_random(seed):
    rng = Random(seed)
    ctx = make_ctx(3, 4)
    a, b, c = (ctx.random_element(rng) for _ in range(3))
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a - a == ctx.zero()


def test_inverse():
    for a in rand_elems(make_ctx(5, 3), 100, seed=11):
        if not a.is_zero():
            assert a * a.inv() == 1
            assert a / a == 1
    with pytest.raises(DivisionByZero):
        F4.zero().inv()


def test_pow_negative():
    a = F16.gen()
    assert a ** -1 == a.inv()
    assert a ** -3 == (a ** 3).inv()
    assert a ** 0 == 1


#: (p, n, f, modulus) of the warm-roots fields
WARM_FIELDS = [(2, 8, 1, None), (2, 64, 1, None), (3, 40, 1, None), (5, 27, 1, None),
               (65521, 4, 1, None), (2**32 - 5, 2, 1, None), (7, 14, 1, None),
               (3, 12, 2, None), (2, 32, 1, "t^32+t^31+t^3+t+1")]


@pytest.mark.parametrize("p, n, f, modulus", WARM_FIELDS)
def test_pow_matches_repeated_multiplication(p, n, f, modulus):
    # the walk's product join against products one factor at a time for
    # small e, and against PrimePoly powering mod the modulus for all e
    ctx = make_ctx(p, n, modulus=modulus, f=f)
    rng = Random(p * n)
    for a in [ctx.gen(), ctx.one(), ctx.zero()] + rand_elems(ctx, 3, seed=n):
        exponents = [0, 1, 2, p, ctx.q ** ctx.m - 1, rng.randrange(2**80)]
        for e in exponents:
            want = ctx.elem(a.to_poly().pow_mod(e, ctx.modulus))
            assert a ** e == want, (a, e)
            if e <= 16:
                product = ctx.one()
                for _ in range(e):
                    product = product * a
                assert a ** e == product, (a, e)
        if not a.is_zero():
            assert a ** (ctx.q ** ctx.m - 1) == 1


def test_elements_lex():
    elems = list(F4.elements_lex())
    assert len(elems) == 4
    assert elems[0] == F4.zero()
    coeff_lists = [e.coeffs for e in elems]
    assert coeff_lists == sorted(coeff_lists)


# -- frobenius ----------------------------------------------------------------

def test_frobenius_examples():
    w = F4.gen()
    assert frobenius(w, 1) == w * w        # conjugate of ω is ω²
    a = F16.gen()
    assert frobenius(a, 1) == a * a
    assert frobenius(a, 0) == a
    assert frobenius(a, 4) == a            # full orbit


def test_frobenius_is_homomorphism():
    rng = Random(5)
    ctx = make_ctx(3, 4)
    for _ in range(30):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_vs_pow():
    rng = Random(6)
    for ctx in (make_ctx(2, 6, f=2), make_ctx(5, 4), make_ctx(3, 6, f=3)):
        for _ in range(20):
            a = ctx.random_element(rng)
            assert frobenius(a, 1) == a ** ctx.q
            assert frobenius(a, 2) == a ** (ctx.q ** 2)


def test_frobenius_fixes_exactly_gfq():
    # membership test for the fixed field: a^q = a iff frobenius(a, 1) == a
    ctx = make_ctx(2, 8, f=2)
    rng = Random(7)
    for _ in range(100):
        a = ctx.random_element(rng)
        assert (frobenius(a, 1) == a) == (a ** ctx.q == a)


# -- trace --------------------------------------------------------------------

def test_trace_f4():
    w = F4.gen()
    assert trace(w, 1) == 1          # ω + ω² = 1
    assert trace(F4.one(), 1) == 0   # 1 + 1


def test_trace_identity_tower():
    a = F16.gen()
    assert trace(a, 4) == a


def test_trace_table_row():
    # root of t^4+t^3+1 has absolute trace 1; cross-check by summing conjugates
    z = F16.gen()
    total = sum((z ** (2 ** i) for i in range(4)), F16.zero())
    assert total == 1
    assert trace(z, 1) == 1


def test_trace_lands_in_subfield():
    ctx = make_ctx(3, 6)
    rng = Random(8)
    for _ in range(50):
        v = trace(ctx.random_element(rng), 2)
        assert v ** (3 ** 2) == v


def test_trace_linear_and_transitive():
    ctx = make_ctx(2, 12)
    rng = Random(9)
    for _ in range(30):
        a, b = ctx.random_element(rng), ctx.random_element(rng)
        assert trace(a + b, 1) == trace(a, 1) + trace(b, 1)
        # transitivity: trace to the middle field, view the value there,
        # then trace the rest of the way down
        for mid in (6, 4, 2):
            K = make_ctx(2, mid)
            stepped = trace(subfield_section(trace(a, mid), K), 1)
            assert stepped.coeffs[0] == trace(a, 1).coeffs[0]


def dense(m):
    """Rows of the matrix of a linear map."""
    return [list(row) for row in m.rows()]


def packed(ctx, rows):
    """The linear map of a dense n x n matrix over the field's prime."""
    return _Map(ctx.p, ctx.n, list(zip(*rows)))


@lru_cache(maxsize=None)
def naive_trace_matrix(ctx, d):
    """sum_{k < n/d} F^k for F = x -> x^(p^d), one product per term;
    kept per context, as the n = 64 matrix takes about a second."""
    n, p, frob = ctx.n, ctx.p, dense(fields._frob_cols(ctx, d))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    total = [row[:] for row in power]
    for _ in range(n // d - 1):
        power = [[sum(power[i][k] * frob[k][j] for k in range(n)) % p for j in range(n)]
                 for i in range(n)]
        total = [[(a + b) % p for a, b in zip(r, s)] for r, s in zip(total, power)]
    return total


@pytest.mark.parametrize("p, n, d", [
    (2, 32, 1), (3, 12, 2), (5, 9, 3), (2, 13, 1), (7, 14, 1), (2, 12, 12),
    (65521, 4, 2), (2**32 - 5, 2, 1),
])
def test_trace_matrix_doubling_matches_naive_sum(p, n, d):
    # the traces of t^0 .. t^(n-1) are the columns of the naive matrix,
    # onto every subfield: p | n at p = 2, 3, 7 and p | m at (3, 12, 2)
    # and (7, 14, 1); d = 1 is the power-sum dot product, d > 1 doubling
    ctx = make_ctx(p, n, f=d)
    basis = [FieldElem(ctx, tuple(int(i == k) for i in range(n))) for k in range(n)]
    extremes = (ctx.zero(), ctx.one(), FieldElem(ctx, (p - 1,) * n))
    for e in (e for e in range(1, n + 1) if n % e == 0):
        naive = naive_trace_matrix(ctx, e)
        assert [list(row) for row in zip(*(trace(b, e).coeffs for b in basis))] == naive, e
        for a in extremes:
            assert trace(a, e).coeffs == schoolbook_mat_vec(naive, a.coeffs, p), e
    assert trace(basis[-1]) == trace(basis[-1], d)


def test_trace_builds_no_matrix():
    # onto F_p the trace is a dot product with the modulus's n power sums,
    # so answering has_root on a fresh context builds no Frobenius power
    from as90.artin_schreier import ArtinSchreierInstance, has_root

    for pn in ((2, 64), (3, 40), (65521, 4)):
        ctx = fields.FieldCtx(*pn, make_ctx(*pn).modulus)
        g = ctx.gen()
        assert has_root(ArtinSchreierInstance(ctx, g**ctx.p - g))
        assert "frob" not in ctx._cache
        sums = ctx._cache["trace"][1]
        assert len(sums) == ctx.n and all(isinstance(s, int) for s in sums)
    # every trace is fixed by x -> x^(p^d), checked by powering
    ctx, rng = make_ctx(3, 12), Random(12)
    for a in [ctx.random_element(rng) for _ in range(3)] + [FieldElem(ctx, (2,) * 12)]:
        for d in (1, 2, 3, 4, 6, 12):
            tr = trace(a, d)
            assert tr ** (3**d) == tr, d


def test_trace_default_is_subfield_step():
    ctx = make_ctx(2, 12, f=3)
    a = ctx.gen()
    assert trace(a) == trace(a, 3)


def test_trace_surjectivity_band():
    # over many samples, trace to GF(p^d) should be nonzero with
    # frequency about 1 - 1/p^d
    ctx = make_ctx(3, 4)
    rng = Random(10)
    hits = sum(1 for _ in range(500) if not trace(ctx.random_element(rng), 2).is_zero())
    expected = 500 * (1 - 1 / 9)
    assert abs(hits - expected) < 60


# -- orbit sums S_L(v) = sum_{i<L} F^i(v), F = x -> x^(p^step) -------------------

@pytest.mark.parametrize("p, n, f", [
    (2, 8, 1), (2, 8, 2), (2, 8, 4), (2, 12, 4), (3, 8, 1), (3, 8, 2), (3, 8, 4),
    (5, 8, 1), (5, 8, 2), (5, 8, 4), (65521, 4, 1), (65521, 4, 2), (65521, 4, 4),
    (2**32 - 5, 2, 1), (2**32 - 5, 2, 2),  # f = 4 would need (2^32 - 5)^4 > 2^64
])
def test_orbit_sum_matches_partial_trace_terms(p, n, f):
    # S_L with step f k is the partial sum x_L of sigma^k, for every
    # length up to 2m + 1: the empty sum, whole orbits and past them
    ctx = make_ctx(p, n, f=f)
    m, rng = ctx.m, Random(p + n + f)
    samples = [ctx.one(), ctx.gen(), FieldElem(ctx, (p - 1,) * n), ctx.random_element(rng)]
    for k in [k for k in range(1, m + 1) if math.gcd(k, m) == 1] + [-1]:
        for v in samples:
            terms = partial_trace_terms(v, 2 * m + 2, k)
            for length, want in enumerate(terms):
                assert fields._orbit_sum(v, length, f * k) == want, (k, v, length)


@pytest.mark.parametrize("p, n", [(2, 12), (3, 12), (5, 8), (7, 6), (65521, 4), (2, 1)])
def test_trace_is_the_orbit_sum_by_powering(p, n):
    # Tr onto GF(p^d) for every d | n against sum_{i<n/d} a^(p^(d i)),
    # each conjugate taken by square-and-multiply
    ctx = make_ctx(p, n)
    for a in [ctx.gen(), FieldElem(ctx, (p - 1,) * n)] + rand_elems(ctx, 2, seed=p):
        for d in divisors(n):
            want, conj = ctx.zero(), a
            for _ in range(n // d):
                want, conj = want + conj, conj ** (p**d)
            assert trace(a, d) == want, (a, d)


# -- subfields, orders, logs --------------------------------------------------

def test_degree_over_subfield():
    ctx = make_ctx(2, 12)
    assert degree_over_subfield(ctx.one()) == 1
    z = subfield_embed(F16.gen(), ctx)
    assert degree_over_subfield(z) == 4
    assert degree_over_subfield(ctx.gen()) == 12


def degree_by_orbit(a, d):
    """Reference: the length of the orbit of a under x -> x^(p^d), by **."""
    cur, k = a ** a.ctx.p**d, 1
    while cur != a:
        cur, k = cur ** a.ctx.p**d, k + 1
    return k


@pytest.mark.parametrize("p, n", [(2, 12), (2, 30), (2, 64), (3, 8), (3, 36), (5, 6), (7, 4), (11, 1)])
def test_degree_over_subfield_matches_orbit_walk(p, n):
    # elements of every intermediate subfield, taken as trace images
    ctx = make_ctx(p, n)
    rng = Random(p * 100 + n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        for e in (e for e in divisors if e % d == 0):
            for _ in range(3):
                a = trace(ctx.random_element(rng), e)
                assert degree_over_subfield(a, d) == degree_by_orbit(a, d), (d, e, a)
                assert (e // d) % degree_over_subfield(a, d) == 0


def test_subfield_elements():
    sub = subfield_elements(make_ctx(2, 4), 2)
    assert len(sub) == 4
    for a in sub:
        assert a ** 4 == a
    full = subfield_elements(F4)
    assert len(full) == 2  # default d = f = 1


def test_element_order():
    assert element_order(F4.one()) == 1
    assert element_order(F4.gen()) == 3
    K = make_ctx(2, 8, modulus="t^8+t^7+t^2+t+1")
    assert element_order(K.gen()) == 255
    ctx = make_ctx(3, 4)
    for a in rand_elems(ctx, 25, seed=12):
        if not a.is_zero():
            assert 80 % element_order(a) == 0


def test_discrete_log_round_trip():
    K = make_ctx(2, 8, modulus="t^8+t^7+t^2+t+1")
    g = K.gen()
    assert discrete_log(g, K.one()) == 0
    assert discrete_log(g, g) == 1
    rng = Random(13)
    for _ in range(25):
        k = rng.randrange(255)
        assert discrete_log(g, g ** k) == k


def test_discrete_log_known_values():
    z = F16.gen()
    assert discrete_log(z, z + z * z) == 13
    K = make_ctx(2, 8, modulus="t^8+t^7+t^2+t+1")
    b = K.gen()
    assert discrete_log(b, b + b * b) == 100


def test_discrete_log_not_in_subgroup():
    ctx = make_ctx(2, 16, modulus="t^16+t^15+t^8+t+1")
    g = ctx.gen()  # order 257, far from primitive
    assert element_order(g) == 257
    outside = g + g * g
    with pytest.raises(NotInSubgroup):
        discrete_log(g, outside)


def test_discrete_log_reuses_the_order_of_its_base(monkeypatch):
    # a fresh context, so no earlier test has cached the base's order
    ctx = fields.FieldCtx(2, 16, TABLE_ROWS[16][1])
    z = ctx.gen()
    calls = []
    real = fields.factorint
    monkeypatch.setattr(fields, "factorint", lambda m: calls.append(m) or real(m))
    assert [discrete_log(z, z ** k) for k in (5, 77, 65534, 0)] == [5, 77, 65534, 0]
    assert calls == [2**16 - 1, 2**16 - 1]  # the group order, then that of z: once each
    # both membership checks still run on every call
    weak = fields.FieldCtx(2, 16, PrimePoly.parse("t^16+t^15+t^8+t+1", 2)).gen()
    for _ in range(2):
        with pytest.raises(NotInSubgroup):
            discrete_log(weak, weak + weak * weak)
    assert discrete_log(weak, weak ** 300) == 300 % 257


def test_discrete_log_order_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(fields, "ORDER_CACHE_LIMIT", 2)
    ctx = fields.FieldCtx(2, 8, PrimePoly.parse("t^8+t^7+t^2+t+1", 2))
    g = ctx.gen()
    bases = [g, g ** 2, g ** 4, g ** 7]
    for b in bases:
        assert discrete_log(b, b ** 9) == 9
        assert len(ctx._cache["order"]) <= 2
    assert list(ctx._cache["order"]) == [b.coeffs for b in bases[-2:]]
    # the bounded plans are the only log tables the context keeps
    assert set(ctx._cache) == {"kernel", "order"}
    # an evicted base is worked out again, with the same answer
    assert discrete_log(g, g ** 200) == 200


def test_refused_log_builds_no_plan():
    # g^65535 has order 65537, and g (primitive) is not one of its powers:
    # the refusal comes before any baby-step table of the new base
    ctx = fields.FieldCtx(2, 32, TABLE_ROWS[32][1])
    g = ctx.gen()
    with pytest.raises(NotInSubgroup):
        discrete_log(g ** 65535, g)
    assert not ctx._cache.get("order")
    assert discrete_log(g ** 65535, g ** (3 * 65535)) == 3
    assert list(ctx._cache["order"]) == [(g ** 65535).coeffs]


def test_discrete_log_coerces_its_target():
    # GF(3^4): the generator has order 40, not 80
    g = make_ctx(3, 4, modulus="t^4+t^3+t^2+1").gen()
    assert element_order(g) == 40
    assert discrete_log(g, g ** 3) == 3
    assert discrete_log(g, 1) == 0
    assert discrete_log(g, 2) == 20  # -1 = g^(40/2)
    assert discrete_log(g, "t") == 1
    with pytest.raises(CtxMismatch):
        discrete_log(g, make_ctx(2, 4).gen())
    with pytest.raises(ZeroElement):
        discrete_log(g, 3)


def test_make_ctx_cache_is_bounded():
    # a long-lived process asking for many fields keeps only the newest
    limit = fields.CTX_CACHE_LIMIT
    assert fields._make_ctx_cached.cache_info().maxsize == limit
    primes = [m for m in range(2, 10**4) if is_prime(m)][: limit + 5]
    for p in primes:
        assert make_ctx(p, 1).modulus == PrimePoly.x(p)
        assert fields._make_ctx_cached.cache_info().currsize <= limit
    # an evicted context is built again, equal to the first
    assert make_ctx(primes[0], 1) == fields.FieldCtx(primes[0], 1, PrimePoly.x(primes[0]))
    assert make_ctx(primes[-1], 1) is make_ctx(primes[-1], 1)


def test_embed_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(fields, "_EMBED_CACHE", {})
    monkeypatch.setattr(fields, "EMBED_CACHE_LIMIT", 3)
    big = make_ctx(2, 12)
    subs = [make_ctx(2, d, modulus=m) for d, m in
            ((2, "t^2+t+1"), (3, "t^3+t+1"), (3, "t^3+t^2+1"), (4, "t^4+t+1"), (6, None))]
    images = []
    for sub in subs:
        images.append(subfield_embed(sub.gen(), big))
        assert len(fields._EMBED_CACHE) <= 3
    assert list(fields._EMBED_CACHE) == [(sub, big) for sub in subs[-3:]]
    # an evicted pair is worked out again, with the same image
    assert subfield_embed(subs[0].gen(), big) == images[0]


# -- embeddings ---------------------------------------------------------------

def test_embed_identity_and_one():
    ctx = make_ctx(2, 12)
    assert subfield_embed(F4.one(), ctx) == ctx.one()
    assert subfield_embed(ctx.gen(), ctx) == ctx.gen()


def test_embed_omega():
    img = subfield_embed(F4.gen(), F16)
    assert img * img + img + 1 == 0


def test_embed_is_homomorphism():
    ctx = make_ctx(2, 12)
    rng = Random(14)
    for _ in range(25):
        a, b = F16.random_element(rng), F16.random_element(rng)
        assert subfield_embed(a + b, ctx) == subfield_embed(a, ctx) + subfield_embed(b, ctx)
        assert subfield_embed(a * b, ctx) == subfield_embed(a, ctx) * subfield_embed(b, ctx)


def test_embed_trace_scaling():
    # Tr_{E/K}(embed z) = (n/d) * z for z in the subfield K
    E = make_ctx(2, 12, f=4)
    img = subfield_embed(F16.gen(), E)
    assert trace(img, 4) == 3 * img  # = img in char 2
    E3 = make_ctx(3, 4)
    img3 = subfield_embed(make_ctx(3, 2).gen(), E3)
    assert trace(img3, 2) == 2 * img3


def test_subfield_section_round_trip():
    ctx = make_ctx(2, 12)
    rng = Random(16)
    for _ in range(20):
        z = F16.random_element(rng)
        assert subfield_section(subfield_embed(z, ctx), F16) == z
    with pytest.raises(NoEmbedding):
        subfield_section(ctx.gen(), F16)  # degree 12 over F_2, not in GF(16)


def last_irreducible(p, n):
    """The monic irreducible of degree n that default_modulus would reach
    last; another modulus than the default wherever there are two."""
    for low in reversed(list(_count_vectors(p, n))):
        g = PrimePoly(p, low + (1,))
        if is_irreducible(g):
            return g


def conjugate_roots(g, theta):
    """The d = deg g conjugates theta^(p^i), i < d, by powering, checked
    to be distinct roots of g by Horner's rule.  A polynomial of degree d
    has at most d roots, so these are all of them."""
    ctx = theta.ctx
    conjugates = [theta ** ctx.p**i for i in range(g.degree)]
    assert len(set(conjugates)) == g.degree
    for c in conjugates:
        value = ctx.zero()
        for coeff in reversed(g.coeffs):
            value = value * c + coeff
        assert value.is_zero(), (g, c)
    return conjugates


def embedding_grid():
    for p in (2, 3, 5, 7):
        for f in (1, 2):
            dst = make_ctx(p, 4, f=f)
            yield make_ctx(p, 1), dst
            yield make_ctx(p, 1, modulus=PrimePoly(p, (p - 1, 1))), dst  # root 1
            yield make_ctx(p, 2), dst
            yield make_ctx(p, 2, modulus=last_irreducible(p, 2)), dst
            yield make_ctx(p, 4, modulus=last_irreducible(p, 4)), dst
    yield make_ctx(5, 2, modulus="t^2+2"), make_ctx(5, 4)  # roots +-theta, -1 a square
    yield make_ctx(2, 3), make_ctx(2, 6, f=2)
    yield make_ctx(2, 6, modulus=last_irreducible(2, 6)), make_ctx(2, 6, f=3)
    for p in (3, 5, 7):
        yield find_zeta(p).ctx, make_ctx(p, 2 * p)
    for e in (8, 16):
        yield make_ctx(2, e, modulus=TABLE_ROWS[e][1]), make_ctx(2, 16)
    yield make_ctx(2, 8, modulus=TABLE_ROWS[8][1]), make_ctx(2, 8)


def test_embedding_image_is_least_root():
    # the Frobenius-orbit image against the full root list, found by powering
    for src, dst in embedding_grid():
        theta = fields._embedding_image(src, dst)
        roots = conjugate_roots(src.modulus, theta)
        assert theta == min(roots, key=lambda e: e.coeffs), (src, dst)
        if src.n > 1:
            assert subfield_embed(src.gen(), dst) == theta


@pytest.mark.parametrize("sub, big", [
    (make_ctx(3, 2), make_ctx(3, 6)),
    (make_ctx(5, 2, modulus="t^2+2"), make_ctx(5, 4)),
    (make_ctx(7, 2), make_ctx(7, 4, f=2)),
    (make_ctx(3, 2, modulus="t^2+t+2"), make_ctx(3, 8, f=4)),
    (make_ctx(2, 4, f=2), make_ctx(2, 12, f=4)),
])
def test_subfield_section_inverts_embed(sub, big):
    rng = Random(17)
    for _ in range(10):
        a = sub.random_element(rng)
        image = subfield_embed(a, big)
        assert subfield_section(image, sub) == a
        assert image ** sub.order == image


def test_embed_rejections():
    with pytest.raises(NoEmbedding):
        subfield_embed(F8.gen(), F16)      # 3 does not divide 4
    with pytest.raises(NoEmbedding):
        subfield_embed(make_ctx(3, 2).gen(), F16)  # wrong characteristic


def test_embed_deterministic():
    ctx = make_ctx(2, 8)
    a = subfield_embed(F4.gen(), ctx)
    b = subfield_embed(F4.gen(), ctx)
    assert a == b


#: (p, source modulus, target modulus) -> (the root ``_one_root`` finds,
#: the embedding image), as the n single Frobenius steps of its trace fold
#: gave them; the source degree is below the target's except in the last row
PINNED_ROOTS = {
    (2, "t^4+t^3+1", "t^8+t^7+t^5+t^4+1"): ("t^7+t^5+t^3", "t^7+t^5+t^3"),
    (2, "t^8+t^7+t^5+t^4+1", "t^64+t^63+t^61+t^60+1"): (
        "t^63+t^60+t^59+t^58+t^55+t^54+t^53+t^51+t^50+t^45+t^42+t^36+t^35+t^34+t^33+t^32"
        "+t^29+t^23+t^21+t^19+t^18+t^15+t^14+t^13+t^11+t^9+t^8+t^7+t^3+t^2+t+1",
        "t^63+t^58+t^54+t^53+t^51+t^50+t^48+t^47+t^44+t^43+t^38+t^35+t^34+t^29+t^25+t^23"
        "+t^17+t^14+t^12+t^11+t^10+t^8+t^7+t^3"),
    (2, "t^16+t^15+t^13+t^11+1", "t^32+t^30+t^29+t^25+1"): (
        "t^30+t^29+t^28+t^26+t^25+t^24+t^23+t^20+t^19+t^18+t^17+t^11+t^9+t^8+t^5+t",
        "t^31+t^29+t^21+t^19+t^17+t^13+t^7+t^6+t^4+t^3+t^2"),
    (2, "t^32+t^31+t^3+t+1", "t^64+t^63+t^61+t^60+1"): (
        "t^63+t^62+t^60+t^59+t^58+t^55+t^54+t^53+t^52+t^51+t^46+t^44+t^43+t^41+t^39+t^36"
        "+t^34+t^28+t^24+t^23+t^21+t^19+t^18+t^17+t^16+t^13+t^10+t^8+t^5+t^3",
        "t^62+t^60+t^59+t^58+t^57+t^56+t^55+t^54+t^53+t^52+t^50+t^49+t^47+t^46+t^43+t^40"
        "+t^38+t^33+t^31+t^29+t^27+t^26+t^21+t^20+t^19+t^18+t^17+t^16+t^13+t^9+t^5+t^4"),
    (2, "t^6+t^5+1", "t^24+t^23+t^21+t^20+1"): (
        "t^22+t^17+t^15+t^14+t^10+t^8+t^6+t^5+t^3+1",
        "t^20+t^19+t^18+t^17+t^16+t^14+t^13+t^11+t^9+t^8+t^7+t^6+t^2"),
    (3, "t^4+t^3+t^2+1", "t^12+t^11+t^8+1"): (
        "2t^8+2t^7+2t^6+2t^5+2t^4+t^3+2t^2+2t", "2t^8+2t^7+2t^6+2t^5+2t^4+t^3+2t^2+2t"),
    (3, "t^5+2t^4+1", "t^40+t^37+t^36+1"): (
        "t^39+2t^38+2t^35+2t^34+2t^33+t^32+t^30+2t^28+t^27+2t^26+2t^25+t^23+2t^22+t^20"
        "+2t^19+t^17+t^14+2t^13+t^11+t^10+t^9+t^8+t^7+t^6+2t^5+t^4+t^2+1",
        "t^39+t^38+t^36+t^35+t^31+2t^30+t^29+t^26+2t^25+2t^21+2t^20+2t^19+t^18+2t^16"
        "+2t^13+t^12+t^11+t^10+2t^8+t^7+t^6+2t^5+2t^4+t^3+t^2"),
    (3, "t^9+t^7+2t^6+1", "t^27+2t^26+2t^25+t^24+t^22+1"): (
        "t^26+2t^25+t^22+2t^20+t^19+2t^18+2t^16+2t^15+2t^14+2t^12+t^11+2t^10+2t^8+2t^7"
        "+t^4+2t^3+2t^2+t+1",
        "2t^26+2t^24+2t^21+t^20+2t^19+2t^18+t^16+2t^15+t^14+t^13+t^12+t^11+t^10+2t^9"
        "+2t^8+2t^7+2t^5+t^2+t"),
    (5, "t^3+t^2+1", "t^27+t^26+1"): (
        "t^26+t^25+4t^24+t^23+2t^21+4t^17+2t^15+3t^14+t^13+t^12+t^11+2t^10+t^9+2t^7+t^6"
        "+3t^5+4t^4+3t^3+3",
        "4t^26+2t^25+2t^24+4t^23+4t^22+t^21+2t^20+4t^18+4t^16+4t^15+4t^14+2t^13+t^12"
        "+t^10+4t^9+3t^8+3t^7+3t^6+4t^5+4t^4+2t^3+3t^2+t+2"),
    (7, "t^7+6t^6+1", "t^14+3t^13+1"): (
        "2t^13+5t^12+2t^10+t^9+4t^8+3t^7+5t^6+3t^5+2t^4+4t^2+6t+5",
        "5t^9+4t^8+3t^7+2t^5+2t^4+6t^3+2t"),
    (65521, "t^2+15t+1", "t^4+3t^3+1"): (
        "37826t^3+65327t^2+15337t+54314", "27695t^3+194t^2+50184t+11192"),
    (2**32 - 5, "t+7", "t^2+1"): ("4294967284", "4294967284"),
    (3, "t^2+t+2", "t^8+t^6+t^5+1"): ("t^7+t^6+t^4+2t^3+2t", "t^7+t^6+t^4+2t^3+2t"),
    (5, "t^4+t^3+t+3", "t^20+t^19+t^18+1"): (
        "2t^19+t^18+2t^17+t^16+t^15+2t^14+3t^13+4t^12+t^11+4t^10+4t^9+t^8+t^7+t^6+4t^5"
        "+2t^4+2t^3+4t^2+4t+4",
        "3t^19+t^17+t^16+2t^15+4t^14+3t^13+2t^12+t^11+2t^9+2t^8+3t^7+2t^6+2t^5+4t^4"
        "+2t^3+3t^2+3t"),
    (2, "t^12+t^9+1", "t^12+t^11+t^10+t^8+t^6+t^4+t^3+t+1"): (
        "t^10+t^9+t^8+t^5+t^4+t^3", "t^9+t^6+t^3"),
}


@pytest.mark.parametrize("key", sorted(PINNED_ROOTS, key=str))
def test_one_root_and_embedding_image_pinned(key):
    p, g, h = key
    src = make_ctx(p, PrimePoly.parse(g, p).degree, modulus=g)
    dst = make_ctx(p, PrimePoly.parse(h, p).degree, modulus=h)
    root, image = PINNED_ROOTS[key]
    assert str(fields._one_root(src.modulus, dst)) == root
    assert str(fields._embedding_image(src, dst)) == image


# -- the root finder against the schoolbook ctx[X] engine it replaced ----------
#
# ``_one_root`` once split g by gcds over ctx[X], on lists of FieldElem
# coefficients (low degree first, trimmed).  That engine is kept here as
# the reference: any root it finds gives the same embedding image, the
# least of the root's Frobenius conjugates.

def fp_trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def fp_mul(a, b, ctx):
    if not a or not b:
        return []
    out = [ctx.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return fp_trim(out)


def fp_divmod(a, b, ctx):
    rem = list(a)
    db = len(b) - 1
    if len(rem) - 1 < db:
        return [], fp_trim(rem)
    inv = b[-1].inv()
    quo = [ctx.zero()] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] * inv
        if not c.is_zero():
            quo[k] = c
            for i, bc in enumerate(b):
                rem[k + i] = rem[k + i] - c * bc
    return fp_trim(quo), fp_trim(rem[:db])


def fp_mod(a, b, ctx):
    return fp_divmod(a, b, ctx)[1]


def fp_gcd(a, b, ctx):
    a, b = list(a), list(b)
    while b:
        a, b = b, fp_mod(a, b, ctx)
    inv = a[-1].inv()
    return [c * inv for c in a]


def fp_powmod(base, e, mod, ctx):
    result = fp_mod([ctx.one()], mod, ctx)
    base = fp_mod(list(base), mod, ctx)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, base, ctx), mod, ctx)
        base = fp_mod(fp_mul(base, base, ctx), mod, ctx)
        e >>= 1
    return result


def reference_one_root(g, ctx):
    """Berlekamp's trace split by gcds with the current factor h of g."""
    p, n, d = ctx.p, ctx.n, g.degree
    conj = [PrimePoly.x(p) % g]
    for _ in range(d - 1):
        conj.append(conj[-1].pow_mod(p, g))
    rng = Random(0xE17)
    h = [ctx.elem(c) for c in g.coeffs]
    while len(h) > 2:
        a = ctx.random_element(rng)
        w = [ctx.zero()] * d
        for k in range(n):
            for j, c in enumerate(conj[k % d].coeffs):
                w[j] = w[j] + c * a
            a = a ** p
        w[0] = w[0] + rng.randrange(p)
        w = fp_mod(fp_trim(w), h, ctx)
        if p != 2:
            w = fp_powmod(w, (p - 1) // 2, h, ctx) or [ctx.zero()]
            w = fp_trim([w[0] - 1] + w[1:])
        f = fp_gcd(w, h, ctx)
        if 1 < len(f) < len(h):
            h = f if 2 * len(f) <= len(h) + 1 else fp_divmod(h, f, ctx)[0]
    return -h[0]


def reference_image(src, dst):
    if src.n == dst.n and src.modulus == dst.modulus:
        return dst.gen()
    roots = conjugate_roots(src.modulus, reference_one_root(src.modulus, dst))
    return min(roots, key=lambda e: e.coeffs)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def fits(p, n):
    return p**n <= fields.SCALE_LIMIT


def constructor_pairs():
    """(source, target) of each embedding a root constructor or the
    deterministic witness search makes, on every field under the cap
    (for the cube-root and cyclotomic constructors, over a few primes)."""
    for d, (_, g) in TABLE_ROWS.items():  # table: the two-part of n is d
        for n in range(d, 65, 2 * d):
            yield make_ctx(2, d, modulus=g), make_ctx(2, n)
    for p in (2, 3, 5, 7, 11, 13):  # np_p: the p-part of n is p
        for n in range(p, 65, p):
            if fits(p, n) and n % p**2:
                yield find_zeta(p).ctx, make_ctx(p, n)
    for p in (2, 5, 11, 17, 2**32 - 5):  # p2mod3: omega, n even, p coprime to n/2
        for n in range(2, 65, 2):
            if fits(p, n) and (n // 2) % p:
                yield make_ctx(p, 2, modulus=PrimePoly(p, (1, 1, 1))), make_ctx(p, n)
    for p in (2, 3, 5, 7):  # prime_r: a big factor of the r-th cyclotomic
        for r in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            e = ord_mod(r, p) if r != p else 0
            big = [g for g in factor_cyclotomic(r, p) if classify(g).is_big] if e else []
            for n in range(e, 65, e or 65):
                if big and fits(p, n) and (n // e) % p:
                    yield make_ctx(p, e, modulus=big[0]), make_ctx(p, n)
    seen = set()
    for p in (2, 3, 5, 7):  # find_trace_one: the degree-f m_p subfield, f m_p < n
        for n in range(2, 65):
            for f in divisors(n) if fits(p, n) else ():
                d = f * p_part(n // f, p)
                if p_part(n // f, p) > 1 and d < n and (p, d, n) not in seen:
                    seen.add((p, d, n))
                    yield make_ctx(p, d, f=f), make_ctx(p, n, f=f)


def random_irreducible(p, d, rng):
    while True:
        g = PrimePoly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if is_irreducible(g):
            return g


def random_pairs():
    rng = Random(2024)
    for p in (2, 3, 5, 7, 251, 65521):
        top = max(n for n in range(1, 65) if fits(p, n))
        for _ in range(5):
            n = rng.randint(1, min(top, 24))
            d = rng.choice(divisors(n))
            yield (make_ctx(p, d, modulus=random_irreducible(p, d, rng)),
                   make_ctx(p, n, modulus=random_irreducible(p, n, rng)))


@pytest.mark.parametrize("pairs", [embedding_grid, constructor_pairs, random_pairs])
def test_embedding_image_matches_reference_root_finder(pairs):
    for src, dst in pairs():
        root = fields._one_root(src.modulus, dst)
        assert fields._at(src.modulus, root).is_zero(), (src, dst)
        assert fields._embedding_image(src, dst) == reference_image(src, dst), (src, dst)


# (p, n, d) -> slot width of the packed product in ctx[X]/g: each side of
# the width boundaries 255, 2^16 - 1, 2^32 - 1 and 2^64 - 1 of n d (p-1)^2
ALGEBRA_FIELDS = {
    (2, 42, 6): 1, (3, 21, 3): 1, (2, 16, 16): 2, (5, 4, 4): 2,
    (127, 2, 2): 2, (131, 2, 2): 4, (32749, 2, 2): 4, (32771, 2, 2): 8,
    (2**31 - 1, 2, 2): 8, (2**32 - 5, 2, 2): 9,
}


@pytest.mark.parametrize("pnd", sorted(ALGEBRA_FIELDS))
def test_mod_g_product_matches_schoolbook(pnd):
    p, n, d = pnd
    assert fields._packer(p, n * d)[0] == ALGEBRA_FIELDS[pnd]
    ctx = make_ctx(p, n)
    g = random_irreducible(p, d, Random(d))
    pack, unpack, mul = fields._mod_g(g, ctx)
    g_elems = [ctx.elem(c) for c in g.coeffs]
    rng = Random(p)
    top = [FieldElem(ctx, (p - 1,) * n)] * d  # every slot as large as it can be
    for a, b in [(top, top)] + [([ctx.random_element(rng) for _ in range(d)],
                                 [ctx.random_element(rng) for _ in range(d)]) for _ in range(4)]:
        got = unpack(mul(pack([x.coeffs for x in a]), pack([x.coeffs for x in b])))
        want = fp_mod(fp_mul(a, b, ctx), g_elems, ctx)
        want += [ctx.zero()] * (d - len(want))
        assert got == [x.coeffs for x in want]


# -- linear algebra helpers ---------------------------------------------------

def test_nullspace():
    # x + y = 0 over F_2 has nullspace spanned by (1, 1)
    basis = nullspace([[1, 1], [0, 0]], 2)
    assert [tuple(v) for v in basis] == [(1, 1)]


def test_solve_in_span():
    cols = [[1, 0, 1], [0, 1, 1]]
    combo = solve_in_span(cols, [1, 1, 0], 2)
    assert combo == [1, 1]
    assert solve_in_span(cols, [1, 0, 0], 2) is None


def test_nullspace_and_span_on_random_matrices():
    # small enough to enumerate every vector: the kernel found is the
    # whole kernel, and solve_in_span answers exactly on the column span
    from itertools import product

    rng = Random(77)
    for p, rows, cols in [(2, 3, 4), (3, 4, 3), (5, 2, 3), (7, 3, 2), (3, 1, 4)]:
        for _ in range(8):
            mat = [[rng.randrange(p) if rng.random() < 0.7 else 0
                    for _ in range(cols)] for _ in range(rows)]
            vectors = list(product(range(p), repeat=cols))
            kernel = {v for v in vectors
                      if all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in mat)}
            basis = nullspace(mat, p)
            spanned = {
                tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p for i in range(cols))
                for cs in product(range(p), repeat=len(basis))
            }
            assert spanned == kernel and len(kernel) == p ** len(basis)
            columns = [list(c) for c in zip(*mat)]
            images = {
                tuple(sum(c * col[i] for c, col in zip(cs, columns)) % p
                      for i in range(rows))
                for cs in vectors
            }
            for target in product(range(p), repeat=rows):
                combo = solve_in_span(columns, target, p)
                if target in images:
                    got = tuple(sum(c * col[i] for c, col in zip(combo, columns)) % p
                                for i in range(rows))
                    assert got == target
                else:
                    assert combo is None


# -- packed kernels against schoolbook references -------------------------------

# (p, n) -> slot width in bytes: each side of every width boundary, n = 1,
# and the two largest binary and ternary fields of the benchmark; a field's
# kernel packs n + 1 products, so (5, 14) is the largest p = 5 kernel on
# one-byte slots
KERNEL_FIELDS = {
    (2, 1): 1, (3, 1): 1, (5, 14): 1, (5, 15): 1, (5, 16): 2, (17, 1): 2, (65521, 4): 8,
    (2**32 - 5, 2): 9, (2**64 - 59, 1): 16, (2, 64): 1, (3, 40): 1,
}


def schoolbook_mat_vec(mat, v, p):
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in mat)


def schoolbook_mat_mul(a, b, p):
    n = len(b)
    return [[sum(row[k] * b[k][j] for k in range(n)) % p for j in range(len(b[0]))]
            for row in a]


def reference_elem(ctx, poly):
    """Coefficient tuple of a PrimePoly reduced mod the modulus."""
    cs = (poly % ctx.modulus).coeffs
    return cs + (0,) * (ctx.n - len(cs))


def draw_elem(data, ctx):
    cs = data.draw(st.lists(st.integers(0, ctx.p - 1), min_size=ctx.n, max_size=ctx.n))
    return FieldElem(ctx, tuple(cs))


def test_kernel_slot_widths():
    for (p, n), width in KERNEL_FIELDS.items():
        assert fields._packer(p, n)[0] == width, (p, n)
        assert n * (p - 1) ** 2 < 256**width
    # a kernel slot (the value of a 1 packed in slot 1) holds the n
    # products of a field product; a trace step adds one packed element to
    # a matrix-vector product, so a slot of a Frobenius map must hold
    # n (p-1)^2 + p - 1; one byte is short by one at p = 2, n = 255
    wide = fields.FieldCtx(2, 255, PrimePoly.x(2, 255) + PrimePoly(2, (1, 1)))
    for ctx in [make_ctx(*pn) for pn in KERNEL_FIELDS] + [wide]:
        p, n = ctx.p, ctx.n
        assert n * (p - 1) ** 2 < fields._kernel(ctx).pack((0, 1)), (p, n)
        assert n * (p - 1) ** 2 + p - 1 < fields._frob_cols(ctx, 1).pack((0, 1)), (p, n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.data())
def test_kernel_arithmetic_matches_primepoly(pn, data):
    ctx = make_ctx(*pn)
    p = ctx.p
    a, b = draw_elem(data, ctx), draw_elem(data, ctx)
    pa, pb = PrimePoly(p, a.coeffs), PrimePoly(p, b.coeffs)
    assert (a * b).coeffs == reference_elem(ctx, pa * pb)
    assert (a + b).coeffs == reference_elem(ctx, pa + pb)
    assert (a - b).coeffs == reference_elem(ctx, pa - pb)
    assert (-a).coeffs == reference_elem(ctx, -pa)
    for c in (a * b, a + b, a - b, -a):
        assert len(c.coeffs) == ctx.n and all(0 <= x < p for x in c.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(KERNEL_FIELDS)), st.data())
def test_kernel_frobenius_and_trace_match_schoolbook(pn, data):
    ctx = make_ctx(*pn)
    a = draw_elem(data, ctx)
    k = data.draw(st.integers(-2, 3))
    frob = dense(fields._frob_cols(ctx, k))
    assert frobenius(a, k).coeffs == schoolbook_mat_vec(frob, a.coeffs, ctx.p)
    tr = naive_trace_matrix(ctx, 1)
    assert trace(a).coeffs == schoolbook_mat_vec(tr, a.coeffs, ctx.p)


@pytest.mark.parametrize("pn", sorted(KERNEL_FIELDS))
def test_kernel_extreme_coefficients(pn):
    # every coefficient p - 1 makes each slot sum as large as it can be
    ctx = make_ctx(*pn)
    p, top = ctx.p, FieldElem(ctx, (ctx.p - 1,) * ctx.n)
    ptop = PrimePoly(p, top.coeffs)
    assert (top * top).coeffs == reference_elem(ctx, ptop * ptop)
    assert (top + top).coeffs == reference_elem(ctx, ptop + ptop)
    assert (top - ctx.one()).coeffs == reference_elem(ctx, ptop - PrimePoly.one(p))
    assert (-top).coeffs == reference_elem(ctx, -ptop)
    for j in (1, 2):
        frob = dense(fields._frob_cols(ctx, j))
        assert frobenius(top, j).coeffs == schoolbook_mat_vec(frob, top.coeffs, p)
    for d in (d for d in (1, 2) if ctx.n % d == 0):
        tr = naive_trace_matrix(ctx, d)
        assert trace(top, d).coeffs == schoolbook_mat_vec(tr, top.coeffs, p)
    full = packed(ctx, [[p - 1] * ctx.n for _ in range(ctx.n)])
    assert dense(full @ full) == schoolbook_mat_mul(dense(full), dense(full), p)


#: the warm-roots fields, and GF(5^14) to GF(5^16) around the byte bound of
#: n + 1 slot products of (p - 1)^2 = 16: 16 * 15 = 240 fits, 16 * 16 does not
FUSED_FIELDS = WARM_FIELDS + [(5, 14, 1, None), (5, 15, 1, None), (5, 16, 1, None)]


@pytest.mark.parametrize("p, n, f, modulus", FUSED_FIELDS)
def test_kernel_mul_add_matches_mul_then_add(p, n, f, modulus):
    ctx = make_ctx(p, n, modulus=modulus, f=f)
    kern = fields._kernel(ctx)
    top = (p - 1,) * n
    triples = [(top, top, top)] + [tuple(e.coeffs for e in rand_elems(ctx, 3, seed))
                                   for seed in range(20)]
    for a, b, c in triples:
        assert kern.mul_add(a, b, c) == kern.add(kern.mul(a, b), c)
        assert kern.mul_add(a, b, c) == reference_elem(
            ctx, PrimePoly(p, a) * PrimePoly(p, b) + PrimePoly(p, c))


def test_kernel_mul_add_past_the_byte():
    # over F_2 at n = 255 the middle slot of a product of two all-ones
    # elements sums 255 products, and mul_add adds one more residue
    ctx = fields.FieldCtx(2, 255, PrimePoly.x(2, 255) + PrimePoly(2, (1, 1)))
    ones = (1,) * 255
    want = reference_elem(ctx, PrimePoly(2, ones) * PrimePoly(2, ones) + PrimePoly(2, ones))
    assert fields._kernel(ctx).mul_add(ones, ones, ones) == want


@pytest.mark.parametrize("p, n, f, modulus", FUSED_FIELDS)
def test_scale_by_int_matches_kernel_product(monkeypatch, p, n, f, modulus):
    ctx = make_ctx(p, n, modulus=modulus, f=f)
    kern = fields._kernel(ctx)
    elems = [FieldElem(ctx, (p - 1,) * n)] + rand_elems(ctx, 5, p + n)
    for c in (0, 1, p - 1, p, -1, 2 * p + 3):
        scalar = ctx.elem(c)
        for z in elems:
            want = kern.mul(z.coeffs, scalar.coeffs)
            assert (z * c).coeffs == want and (c * z).coeffs == want, c
            assert kern.scale(z.coeffs, c) == want
        assert (-elems[0]).coeffs == kern.mul(elems[0].coeffs, ctx.elem(-1).coeffs)

    # == with an int compares coefficients and builds no element
    def refuse(*args):
        raise AssertionError("ctx.elem called")

    scalars = [(c, ctx.elem(c)) for c in (0, 1, p - 1, p, -1, 2 * p + 3)]
    elems += [s for _, s in scalars] + [s + ctx.gen() for _, s in scalars]
    monkeypatch.setattr(fields.FieldCtx, "elem", refuse)
    for c, scalar in scalars:
        for z in elems:
            assert (z == c) == (z.coeffs == scalar.coeffs), (z, c)


@pytest.mark.parametrize("pn", sorted(KERNEL_FIELDS))
def test_kernel_frobenius_matrices_match_primepoly(pn):
    # column i of power j is t^(i p^j) mod g, here the p-th power of the
    # same column of power j - 1 by PrimePoly.pow_mod; a power that is
    # the sum of two cached ones is built as their product, so this
    # checks that route as well as the direct one
    ctx = make_ctx(*pn)
    p, n, g = ctx.p, ctx.n, ctx.modulus
    reference = [PrimePoly.x(p, i) % g for i in range(n)]
    for j in range(n):
        columns = [reference_elem(ctx, c) for c in reference]
        assert dense(fields._frob_cols(ctx, j)) == [list(r) for r in zip(*columns)], j
        reference = [c.pow_mod(p, g) for c in reference]
    frob = dense(fields._frob_cols(ctx, 1))
    if n > 1:
        assert dense(fields._frob_cols(ctx, 2)) == schoolbook_mat_mul(frob, frob, p)
    rng = Random(pn[0] * 1000 + n)
    a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    assert dense(packed(ctx, a) @ packed(ctx, b)) == schoolbook_mat_mul(a, b, p)


def test_frobenius_powers_from_cached_products():
    # a power that is the sum of two cached ones is their matrix product;
    # each must equal the same power built directly in a fresh context
    modulus = make_ctx(3, 40).modulus
    ctx = fields.FieldCtx(3, 40, modulus)
    for j in (1, 2, 4, 8, 16, 32, 3, 39, 0, 5):
        cols = fields._frob_cols(ctx, j)
        assert cols.cols == fields._frob_cols(fields.FieldCtx(3, 40, modulus), j).cols, j
    assert sorted(ctx._cache["frob"]) == [0, 1, 2, 3, 4, 5, 8, 16, 32, 39]


def test_frobenius_inverse_builds_one_power():
    # sigma^-1 on GF(2^64) is power 63; a fresh context must not build
    # every power below it
    ctx = fields.FieldCtx(2, 64, make_ctx(2, 64).modulus)
    a = ctx.gen()
    back = frobenius(a, -1)
    assert len(ctx._cache["frob"]) <= 2
    assert back == a ** 2**63 and frobenius(back, 1) == a


#: (p, n) -> a dense irreducible modulus other than the default one.
DENSE_MODULI = {
    (2, 8): "t^8+t^7+t^6+t^5+t^4+t^2+1", (3, 12): None, (5, 3): None,
    (65521, 4): None, (2**32 - 5, 2): None,
}


def dense_modulus(p, n):
    """DENSE_MODULI[p, n], or a seeded irreducible with every coefficient
    nonzero."""
    if DENSE_MODULI[p, n]:
        return PrimePoly.parse(DENSE_MODULI[p, n], p)
    rng = Random(f"dense/{p}/{n}")
    while True:
        g = PrimePoly(p, [rng.randrange(1, p) for _ in range(n)] + [1])
        if is_irreducible(g):
            return g


@pytest.mark.parametrize("pn", sorted(DENSE_MODULI))
def test_kernel_tables_on_a_dense_modulus(pn):
    # the fold columns of the kernel are t^(n+k) mod g, and column i of
    # Frobenius power j is t^(i p^j) mod g, on a fresh context
    p, n = pn
    g = dense_modulus(p, n)
    assert g != make_ctx(p, n).modulus and is_irreducible(g)
    ctx = fields.FieldCtx(p, n, g)
    kern = fields._kernel(ctx)
    want = [reference_elem(ctx, PrimePoly.x(p, n + k)) for k in range(n - 1)]
    assert [tuple(kern.red.unpack(c, n)) for c in kern.red.cols] == want
    for j in (3, 1, 2, n - 1):  # 3 first, so it is built on its own
        want = [reference_elem(ctx, PrimePoly.x(p).pow_mod(i * p**j, g)) for i in range(n)]
        assert dense(fields._frob_cols(ctx, j)) == [list(r) for r in zip(*want)], j


def reference_artin_schreier_rows(ctx, d):
    """Rows of x -> x^(p^d) - x: column c is t^(c p^d) - t^c mod the modulus."""
    p, g = ctx.p, ctx.modulus
    cols = [reference_elem(ctx, PrimePoly.x(p).pow_mod(c * p**d, g) - PrimePoly.x(p, c))
            for c in range(ctx.n)]
    return [list(r) for r in zip(*cols)]


@pytest.mark.parametrize("p, n, modulus", [(2, 8, None), (2, 8, DENSE_MODULI[2, 8]),
                                           (3, 6, None), (5, 4, None), (7, 2, None),
                                           (65521, 4, None), (2**32 - 5, 2, None)])
def test_artin_schreier_rows_match_powering(p, n, modulus):
    ctx = make_ctx(p, n, modulus=modulus)
    for d in range(1, n + 1):
        rows = fields._artin_schreier_rows(ctx, d)
        assert rows == reference_artin_schreier_rows(ctx, d), d
        if n % d == 0 and p**d <= 2**12:  # the kernel is the subfield
            assert len(nullspace(rows, p)) == d
            assert len(subfield_elements(ctx, d)) == p**d


def test_package_exports_resolve():
    import as90

    for name in as90.__all__:
        assert getattr(as90, name, None) is not None, name
    assert not hasattr(as90, "roots_in_field")
    assert not hasattr(fields, "roots_in_field")
