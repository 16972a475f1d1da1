"""The additive-Hilbert-90 root formula R(y, z), trace-one witnesses,
and the symmetry identity tying R(y,z) to R(z,y)."""

from random import Random

import math

import pytest

from as90 import fields
from as90.errors import NoSuchDegree, TraceNotOne, TraceNotZero
from as90.fields import (
    degree_over_subfield,
    frobenius,
    make_ctx,
    subfield_embed,
    trace,
)
from as90.hilbert90 import (
    _r_raw,
    find_trace_one,
    p_part,
    partial_trace_sequence,
    r_form,
    r_symmetry_defect,
)


def scan_for_cocycle_root(y):
    """Oracle: exhaustively search the field for every x with
    sigma(x) - x = y.  Independent of the closed formula."""
    ctx = y.ctx
    return [x for x in ctx.elements_lex() if frobenius(x, 1) - x == y]


def trace_zero_sample(ctx, rng):
    w = ctx.random_element(rng)
    return frobenius(w, 1) - w


def test_p_part():
    assert p_part(12, 2) == 4
    assert p_part(9, 2) == 1
    assert p_part(18, 3) == 9
    assert p_part(1, 5) == 1


# -- r_form ---------------------------------------------------------------

def test_r_form_zero_y():
    ctx = make_ctx(2, 4)
    z = find_trace_one(ctx).z
    cert = r_form(ctx.zero(), z)
    assert cert.x == ctx.zero()
    assert cert.checked


def test_r_form_f8_z_one():
    # q = 2, n = 3, z = 1: x = sum of odd-index conjugates = y^2
    ctx = make_ctx(2, 3, modulus="t^3+t+1")
    t = ctx.gen()
    y = t + t * t
    assert trace(y, 1) == 0
    cert = r_form(y, ctx.one())
    assert cert.x == y * y
    assert cert.x ** 2 - cert.x == y


def test_r_form_against_scan():
    rng = Random(21)
    for p, n, f in [(2, 4, 1), (2, 6, 2), (3, 3, 1), (3, 4, 2), (5, 2, 1)]:
        ctx = make_ctx(p, n, f=f)
        z = find_trace_one(ctx).z
        for _ in range(5):
            y = trace_zero_sample(ctx, rng)
            cert = r_form(y, z)
            assert cert.x in scan_for_cocycle_root(y)


def test_r_form_two_witnesses_differ_by_subfield():
    ctx = make_ctx(2, 12)
    rng = Random(22)
    z1 = find_trace_one(ctx).z
    z2 = find_trace_one(ctx, target_e=12, randomize=True, seed=5).z
    assert z1 != z2
    y = trace_zero_sample(ctx, rng)
    x1 = r_form(y, z1).x
    x2 = r_form(y, z2).x
    diff = x1 - x2
    assert frobenius(diff, 1) == diff  # lies in GF(q)


def test_r_form_preconditions():
    ctx = make_ctx(2, 4)
    z = find_trace_one(ctx).z
    bad_y = ctx.gen()
    assert trace(bad_y, 1) != 0
    with pytest.raises(TraceNotZero):
        r_form(bad_y, z)
    with pytest.raises(TraceNotOne):
        r_form(ctx.zero(), ctx.zero())


def test_certificate_serialization():
    ctx = make_ctx(2, 6)
    rng = Random(23)
    y = trace_zero_sample(ctx, rng)
    cert = r_form(y, find_trace_one(ctx).z)
    line = cert.serialize()
    assert line.startswith("field=GF(2^6)")
    assert "verified=true" in line
    d = cert.to_dict()
    assert d["verified"] is True
    assert d["y"] == str(y)


def test_r_form_nontrivial_generator():
    # sigma^k with gcd(k, m) = 1 generates the same group; the cocycle
    # equation is then sigma^k(x) - x = y
    ctx = make_ctx(2, 5)
    rng = Random(24)
    w = ctx.random_element(rng)
    y = frobenius(w, 2) - w  # trace-zero for the sigma^2 generator
    cert = r_form(y, find_trace_one(ctx).z, k=2)
    assert frobenius(cert.x, 2) - cert.x == y


def r_by_steps(a, b, k):
    """Reference: R(a, b) = sum_i (sum_{j<i} sigma^{jk} b) sigma^{ik} a in
    m = n/f steps, two Frobenius applications and one product each."""
    acc = partial = a.ctx.zero()
    for _ in range(a.ctx.m):
        acc = acc + partial * a
        partial = partial + b
        a, b = frobenius(a, k), frobenius(b, k)
    return acc


#: (p, f, m) of the warm-roots fields, whose kernels pack on slots of 1 to
#: 9 bytes, with m up to 64; GF(2^32) on its table-row modulus
WARM_SHAPES = [(2, 1, 8), (65521, 1, 4), (65521, 2, 2), (2**32 - 5, 1, 2), (2, 1, 64),
               (3, 1, 40), (5, 1, 27), (7, 1, 14), (3, 2, 6), (2, 1, 32)]
R_RAW_MODULI = {(2, 1, 32): "t^32+t^31+t^3+t+1"}
R_RAW_CASES = [
    (p, f, m) for p in (2, 3, 5, 7) for f in (1, 2, 3) for m in (1, 2, 3, 4, 5, 8, 9, 16)
    if p ** (f * m) <= fields.SCALE_LIMIT
]
R_RAW_CASES += [shape for shape in WARM_SHAPES if shape not in R_RAW_CASES]


def warm_ctx(p, f, m):
    return make_ctx(p, f * m, modulus=R_RAW_MODULI.get((p, f, m)), f=f)


@pytest.mark.parametrize("p, f, m", R_RAW_CASES)
def test_r_raw_matches_step_loop(p, f, m):
    # every generator sigma^k of the group, on random (a, b) and on
    # trace-zero a with a trace-one witness b
    ctx = warm_ctx(p, f, m)
    rng = Random(p * 10000 + f * 100 + m)
    z = find_trace_one(ctx).z
    for k in [k for k in range(1, m + 1) if math.gcd(k, m) == 1] + [-1]:
        pairs = [(ctx.random_element(rng), ctx.random_element(rng)) for _ in range(2)]
        w = ctx.random_element(rng)
        pairs.append((frobenius(w, k) - w, z))
        for a, b in pairs:
            assert _r_raw(a, b, k) == r_by_steps(a, b, k), (k, a, b)


def test_r_raw_builds_as_many_elements_at_m_64_as_at_m_8(monkeypatch):
    # the doubling walk joins on coefficient tuples, so the FieldElem
    # objects one warm call builds do not grow with log m
    init, built = fields.FieldElem.__init__, []

    def counting_init(self, ctx, coeffs):
        built.append(coeffs)
        init(self, ctx, coeffs)

    counts = {}
    for n in (8, 64):
        ctx = make_ctx(2, n)
        y, z = trace_zero_sample(ctx, Random(n)), find_trace_one(ctx).z
        expected = _r_raw(y, z)  # fills the context's Frobenius powers
        assert expected == r_by_steps(y, z, 1)
        with monkeypatch.context() as patch:
            patch.setattr(fields.FieldElem, "__init__", counting_init)
            built.clear()
            x = _r_raw(y, z)
            counts[n] = len(built)
        assert x == expected
    assert counts[8] == counts[64], counts


# -- find_trace_one ---------------------------------------------------------

def test_find_trace_one_np1():
    ctx = make_ctx(2, 3)
    wit = find_trace_one(ctx)
    assert wit.z == ctx.one()  # z = 1/n = 1, n odd
    assert wit.e == 1


def test_find_trace_one_np2():
    ctx = make_ctx(2, 6)
    wit = find_trace_one(ctx)
    assert wit.e == 2
    assert trace(wit.z, 1) == 1
    assert degree_over_subfield(wit.z) == 2
    # the deterministic witness of degree 2 is a cube root of unity
    assert wit.z * wit.z + wit.z + 1 == 0


def test_find_trace_one_table_degree():
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    wit = find_trace_one(ctx)
    assert wit.e == 4 and trace(wit.z, 1) == 1


def test_find_trace_one_target_degrees():
    ctx = make_ctx(2, 12)
    for target in (4, 12):
        wit = find_trace_one(ctx, target_e=target)
        assert wit.e == target
        assert degree_over_subfield(wit.z) == target
        assert trace(wit.z, 1) == 1
    with pytest.raises(NoSuchDegree):
        find_trace_one(ctx, target_e=6)  # 4 does not divide 6
    with pytest.raises(NoSuchDegree):
        find_trace_one(ctx, target_e=5)


def test_find_trace_one_randomized_deterministic_per_seed():
    ctx = make_ctx(3, 6)
    a = find_trace_one(ctx, target_e=6, randomize=True, seed=9)
    b = find_trace_one(ctx, target_e=6, randomize=True, seed=9)
    c = find_trace_one(ctx, target_e=6, randomize=True, seed=10)
    assert a.z == b.z
    assert trace(c.z, 1) == 1
    assert "seed=9" in a.provenance


#: find_trace_one's (z, e, provenance) by (p, n, f, target_e, randomize,
#: seed): solved and sampled witnesses, f = 1 and f > 1, the scalar
#: witness of m_p = 1, and witnesses built in a proper subfield.
PINNED_WITNESSES = [
    ((2, 4, 1, None, False, 0), ("t^3", 4, "deterministic-subfield")),
    ((2, 6, 1, None, False, 0), ("t^5+t^4+t^3", 2, "deterministic-subfield")),
    ((3, 6, 1, None, False, 0), ("2t^3+2t^2+t+2", 3, "deterministic-subfield")),
    ((3, 12, 2, None, False, 0), ("t^10+2t^9+t^5+t^4+t^3+2t^2+t", 3, "deterministic-subfield")),
    ((2, 8, 2, None, False, 0), ("t^6", 4, "deterministic-subfield")),
    ((2, 6, 2, None, False, 0), ("1", 1, "deterministic-subfield")),
    ((5, 3, 1, None, False, 0), ("2", 1, "deterministic-subfield")),
    ((3, 6, 1, 6, True, 3), ("t^5+2t^4+t^2+t", 6, "random-scaled(seed=3)")),
    ((3, 6, 1, 3, True, 5), ("2t^5+2t^4+2t^3+2t^2", 3, "random-scaled(seed=5)")),
    ((2, 6, 2, 1, True, 2), ("1", 1, "random-scaled(seed=2)")),
    ((2, 6, 2, 3, False, 0), ("t^5+t^4+t^3+t+1", 3, "random-scaled(seed=0)")),
    ((3, 12, 2, 6, False, 7), ("2t^11+2t^9+t^8+2t^6+2t^3+t^2+1", 6, "random-scaled(seed=7)")),
]


@pytest.mark.parametrize("args, want", PINNED_WITNESSES)
def test_find_trace_one_pinned_witnesses(args, want):
    p, n, f, target_e, randomize, seed = args
    wit = find_trace_one(make_ctx(p, n, f=f), target_e=target_e, seed=seed, randomize=randomize)
    assert (str(wit.z), wit.e, wit.provenance) == want


def scan_witness(ctx):
    """The deterministic witness as a scan of the fixed field K of
    sigma^{m_p} finds it: the first element of K, in ``elements_lex``
    order, with trace (m/m_p)^{-1} and degree m_p over the base."""
    p, m = ctx.p, ctx.m
    m_p = p_part(m, p)
    sub = ctx if ctx.f * m_p == ctx.n else make_ctx(p, ctx.f * m_p, f=ctx.f)
    want = sub.elem(pow(m // m_p % p, -1, p))
    z0 = next(c for c in sub.elements_lex()
              if trace(c, sub.f) == want and degree_over_subfield(c, sub.f) == m_p)
    return z0 if sub is ctx else subfield_embed(z0, ctx)


# (p, n, f) with m_p > 1, where the scan ends within a few thousand
# elements; K is the whole field or a proper subfield, f = 1 or f > 1
SCAN_FIELDS = [
    (2, 2, 1), (2, 8, 2), (2, 12, 3), (2, 16, 8), (2, 20, 5), (2, 24, 12),
    (2, 32, 4), (2, 40, 5), (3, 9, 3), (3, 12, 4), (3, 24, 8), (3, 39, 1),
    (5, 15, 3), (5, 20, 4), (7, 14, 2), (7, 21, 3), (2, 30, 1), (5, 10, 1),
]


@pytest.mark.parametrize("p, n, f", SCAN_FIELDS)
def test_find_trace_one_is_the_least_witness_a_scan_finds(p, n, f):
    ctx = make_ctx(p, n, f=f)
    wit = find_trace_one(ctx)
    assert wit.z == scan_witness(ctx)
    assert wit.e == p_part(ctx.m, ctx.p) and trace(wit.z, ctx.f) == 1


def test_find_trace_one_in_a_subfield_too_large_to_scan():
    # K is the whole of GF(2^56) or GF(2^64), which no scan could cover
    for ctx in (make_ctx(2, 56, f=28), make_ctx(2, 64, f=32)):
        wit = find_trace_one(ctx)
        assert wit.e == 2 and wit.provenance == "deterministic-subfield"
        assert trace(wit.z, ctx.f) == 1 and degree_over_subfield(wit.z, ctx.f) == 2


def test_find_trace_one_subfield_step():
    # q = 4, m = 3: z should be a scalar in GF(4)... m_p = 1 here
    ctx = make_ctx(2, 6, f=2)
    wit = find_trace_one(ctx)
    assert wit.e == 1
    assert trace(wit.z, 2) == 1


# -- witness sequences -------------------------------------------------------

def test_partial_trace_sequence_omega():
    # z = omega in F_4: 0, w, 1, w^2 repeating
    ctx = make_ctx(2, 2)
    w = ctx.gen()
    seq = partial_trace_sequence(w, length=8)
    assert list(seq.terms) == [ctx.zero(), w, ctx.one(), w * w] * 2
    assert seq.period == 4


def test_partial_trace_sequence_prime_field():
    ctx = make_ctx(3, 1)
    seq = partial_trace_sequence(ctx.one(), length=6)
    assert [int(x.coeffs[0]) for x in seq.terms] == [0, 1, 2, 0, 1, 2]
    assert seq.period == 3


def test_partial_trace_sequence_stores_only_what_it_is_asked():
    # x_0 and x_1 determine the rest, so a huge p stores two terms
    ctx = make_ctx(65521, 1)
    seq = partial_trace_sequence(ctx.one())
    assert list(seq.terms) == [ctx.zero(), ctx.one()]
    assert seq.period == 65521 and seq.e == 1
    assert len(partial_trace_sequence(ctx.one(), length=5)) == 5


def test_partial_trace_sequence_x4_x8():
    # z a root of t^4+t^3+1: x_4 = 1, x_8 = 0
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    seq = partial_trace_sequence(ctx.gen(), length=9)
    assert seq.terms[4] == ctx.one()
    assert seq.terms[8] == ctx.zero()


def test_decomposition_identity():
    # x_{l*e+j} = l * x_e + x_j
    ctx = make_ctx(3, 4)
    rng = Random(25)
    wit = find_trace_one(ctx, target_e=4, randomize=True, seed=1)
    e = wit.e
    seq = partial_trace_sequence(wit.z, length=4 * e * 3)
    for _ in range(40):
        l = rng.randrange(6)
        j = rng.randrange(e)
        assert seq.terms[l * e + j] == l * seq.terms[e] + seq.terms[j]


# -- symmetry -----------------------------------------------------------------

def test_symmetry_defect_zero_small():
    # hand-checkable: F_4, z = omega, y trace-zero
    ctx = make_ctx(2, 2)
    w = ctx.gen()
    for y in (ctx.zero(), ctx.one()):
        assert trace(y, 1) == 0
        assert r_symmetry_defect(y, w).is_zero()


def test_symmetry_defect_zero_random():
    ctx = make_ctx(3, 4)
    rng = Random(26)
    for _ in range(200):
        y = trace_zero_sample(ctx, rng)
        z = find_trace_one(ctx, target_e=4, randomize=True,
                           seed=rng.randrange(2**30)).z
        assert r_symmetry_defect(y, z).is_zero()


@pytest.mark.parametrize("p, f, m", WARM_SHAPES)
def test_symmetry_defect_zero_on_warm_shapes(p, f, m):
    ctx = warm_ctx(p, f, m)
    rng = Random(p + f + m)
    z = find_trace_one(ctx).z
    for _ in range(3):
        y = trace_zero_sample(ctx, rng)
        assert r_symmetry_defect(y, z).is_zero()
        assert r_form(y, z).checked


def test_symmetry_defect_checks_both_cocycles():
    # r_symmetry_defect re-verifies sigma R(y,z) - R(y,z) = y and the
    # reversed orientation R(z,y) - sigma R(z,y) = y before returning,
    # so a zero defect here certifies both cocycle directions
    ctx = make_ctx(2, 6)
    rng = Random(27)
    y = trace_zero_sample(ctx, rng)
    z = find_trace_one(ctx).z
    assert frobenius(r_form(y, z).x, 1) - r_form(y, z).x == y
    assert r_symmetry_defect(y, z).is_zero()
    with pytest.raises(TraceNotZero):
        r_symmetry_defect(z, z)
