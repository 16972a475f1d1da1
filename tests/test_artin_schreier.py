"""Constructive roots of t^q - t - y: the specialized witnesses, the
dispatcher, and the brute-force oracle they are all measured against."""

import json
from pathlib import Path
from random import Random

import pytest

from as90.artin_schreier import (
    KNOWN_EXPONENTS,
    ArtinSchreierInstance,
    IrreducibilityReport,
    RootSet,
    brute_force_roots,
    factor_artin_schreier,
    find_zeta,
    has_root,
    root_char2_table,
    root_coprime,
    root_general,
    root_np_p,
    root_p2mod3,
    root_via_prime_r,
    table_exponent_sequence,
)
from as90 import artin_schreier, hilbert90
from as90.bigpoly import TABLE_ROWS
from as90.errors import (
    BadInput,
    BadOrder,
    FieldTooLarge,
    NoRoot,
    NotApplicable,
    UnsupportedTwoPart,
    WrongCongruence,
    WrongNpCase,
)
from as90.fields import frobenius, make_ctx, subfield_elements, trace
from as90.hilbert90 import find_trace_one
from as90.intfactor import p_part
from as90.periodicity import partial_trace_terms
from as90.polys import is_prime
from period_scan import naive_period

GOLDEN = Path(__file__).parent / "golden"


def inst(ctx, y):
    return ArtinSchreierInstance(ctx, y)


def trace_zero_sample(ctx, rng):
    w = ctx.random_element(rng)
    return frobenius(w, 1) - w


# -- root existence and the brute-force oracle --------------------------------

def test_has_root_matches_exhaustive_scan():
    for p, n, f in [(2, 2, 1), (2, 4, 2), (3, 2, 1)]:
        ctx = make_ctx(p, n, f=f)
        for y in ctx.elements_lex():
            found = any(
                frobenius(x, 1) - x == y for x in ctx.elements_lex()
            )
            assert has_root(inst(ctx, y)) == found


def test_brute_force_zero_instance():
    ctx = make_ctx(2, 2)
    roots = brute_force_roots(inst(ctx, 0))
    assert roots == [ctx.zero(), ctx.one()]


def test_brute_force_counts_are_zero_or_q():
    rng = Random(41)
    for p, n, f in [(2, 4, 1), (2, 4, 2), (2, 6, 3), (3, 3, 1), (5, 2, 2)]:
        ctx = make_ctx(p, n, f=f)
        for _ in range(6):
            y = ctx.random_element(rng)
            count = len(brute_force_roots(inst(ctx, y)))
            assert count == (ctx.q if has_root(inst(ctx, y)) else 0)


def _scan_roots(ctx, y):
    """Reference for brute_force_roots: test every element in turn."""
    return [x for x in ctx.elements_lex() if x ** ctx.q - x == y]


@pytest.mark.parametrize("p, n, f", [
    (p, n, f) for p in (2, 3, 5, 7, 31)
    for n, f in ((1, 1), (2, 1), (2, 2), (3, 1), (4, 2)) if p**n <= 2401
])
def test_brute_force_matches_element_scan(p, n, f):
    ctx = make_ctx(p, n, f=f)
    rng = Random(p * 100 + n * 10 + f)
    ys = [ctx.zero(), trace_zero_sample(ctx, rng)]
    ys += [y for y in ctx.elements_lex() if not has_root(inst(ctx, y))][:2]
    ys.append(ctx.random_element(rng))
    for y in ys:
        assert brute_force_roots(inst(ctx, y)) == _scan_roots(ctx, y), (p, n, f, y)


def test_brute_force_limit():
    ctx = make_ctx(2, 10)
    with pytest.raises(FieldTooLarge):
        brute_force_roots(inst(ctx, 0), limit=1000)


def test_brute_force_refuses_a_coset_too_large_to_list():
    # with q = |E| = 1048583 > 2^20 and y = 0 every element is a root
    ctx = make_ctx(1048583, 1)
    with pytest.raises(FieldTooLarge):
        brute_force_roots(inst(ctx, 0))
    assert brute_force_roots(inst(ctx, 1)) == []


def test_rootset_materialization():
    ctx = make_ctx(2, 4, f=2)
    rng = Random(42)
    y = trace_zero_sample(ctx, rng)
    rs = root_general(inst(ctx, y))
    roots = rs.roots()
    assert len(roots) == 4 == rs.q
    assert len(set(r.coeffs for r in roots)) == 4
    assert roots == sorted(roots, key=lambda e: e.coeffs)
    assert roots == brute_force_roots(inst(ctx, y))
    for r in roots:
        assert r in rs
    outsider = next(
        x for x in ctx.elements_lex() if x not in rs
    )
    assert frobenius(outsider, 1) - outsider != y


def test_roots_keep_no_subfield_list_in_the_context():
    # the root set keeps its own shifted copy of GF(q); the context keeps
    # no second one, and the roots are those of the exhaustive search
    for p, n, f, seed in [(2, 4, 2, 42), (2, 8, 1, 8), (3, 4, 2, 3), (5, 2, 1, 5)]:
        ctx = make_ctx(p, n, f=f)
        y = trace_zero_sample(ctx, Random(seed))
        rs = factor_artin_schreier(inst(ctx, y))
        assert rs.roots() == brute_force_roots(inst(ctx, y)) and len(rs.roots()) == ctx.q
        assert not [k for k in ctx._cache if isinstance(k, tuple) and k[0] == "subfield"]


def test_records_compare_and_print_their_fields():
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    a = inst(ctx, 5)  # y is coerced into the field
    assert a.y == ctx.elem(5) and a == inst(ctx, ctx.elem(5)) and a != inst(ctx, 0)
    assert repr(a) == ("ArtinSchreierInstance(ctx=FieldCtx(p=2, n=4, modulus=PrimePoly(2, "
                       "t^4+t^3+1), f=1), y=<1 in GF(2^4) mod t^4+t^3+1>)")
    rs = RootSet(ctx, ctx.one(), 2, "coprime", True)
    assert rs.notes == {} and rs.notes is not RootSet(ctx, ctx.one(), 2, "coprime", True).notes
    rs.roots()  # fills _roots, which takes part in neither == nor repr
    assert rs == RootSet(ctx, ctx.one(), 2, "coprime", True, _roots=[])
    assert rs != RootSet(ctx, ctx.one(), 2, "coprime", True, {"z": "1"})
    assert repr(rs).endswith("q=2, method='coprime', verified=True, notes={})")
    report = IrreducibilityReport(ctx, ctx.one(), "irreducible", "irreducible")
    assert report == IrreducibilityReport(ctx, ctx.one(), "irreducible", "irreducible")
    assert report != rs and report.__eq__(rs) is NotImplemented
    with pytest.raises(TypeError):
        hash(report)


def test_missing_root_raises():
    odd = make_ctx(2, 3)
    assert trace(odd.one(), 1) == 1  # n odd
    with pytest.raises(NoRoot):
        root_coprime(inst(odd, 1))
    ctx = make_ctx(2, 2)
    bad = ctx.gen()  # trace(omega) = 1
    with pytest.raises(NoRoot):
        root_general(inst(ctx, bad))
    with pytest.raises(NoRoot):
        root_np_p(inst(ctx, bad))


# -- scalar witness (degree coprime to p) --------------------------------------

def test_coprime_f8_is_y_squared():
    ctx = make_ctx(2, 3, modulus="t^3+t+1")
    rng = Random(43)
    for _ in range(10):
        y = trace_zero_sample(ctx, rng)
        rs = root_coprime(inst(ctx, y))
        assert rs.base_root == y * y
        assert rs.method == "coprime"


def test_coprime_f81_closed_form():
    # n = 4, p = 3: 1/m = 1 and x = y^3 + 2 y^9
    ctx = make_ctx(3, 4)
    rng = Random(44)
    for _ in range(10):
        y = trace_zero_sample(ctx, rng)
        rs = root_coprime(inst(ctx, y))
        assert rs.base_root == y**3 + 2 * y**9


def test_coprime_root_in_prime_field_span_of_conjugates():
    # the scalar-witness root is a prime-field combination of the
    # conjugates y, y^q, y^{q^2}, ...
    from as90.fields import solve_in_span

    ctx = make_ctx(3, 4, f=2)
    rng = Random(45)
    y = trace_zero_sample(ctx, rng)
    rs = root_coprime(inst(ctx, y))
    conj = [frobenius(y, i).coeffs for i in range(ctx.m)]
    assert solve_in_span(conj, rs.base_root.coeffs, ctx.p) is not None


def test_coprime_rejects_divisible_degree():
    ctx = make_ctx(2, 4)
    with pytest.raises(WrongNpCase):
        root_coprime(inst(ctx, 0))


# -- zeta witness (p-part exactly p) --------------------------------------------

def test_find_zeta_small_primes():
    for p in (2, 3, 5):
        zeta = find_zeta(p)
        assert trace(zeta, 1) == 1
        assert zeta.ctx.n == p
        # modulus is t^p - t^{p-1} + 1
        mod = zeta.ctx.modulus
        assert mod.degree == p and mod[p] == 1
        assert mod[p - 1] == (-1) % p and mod[0] == 1


def test_np_p_f4_unit():
    ctx = make_ctx(2, 2)
    rs = root_np_p(inst(ctx, 1))
    assert rs.base_root == ctx.gen()
    assert rs.method == "np_p"


def test_np_p_f27():
    ctx = make_ctx(3, 3)
    rng = Random(46)
    for _ in range(10):
        y = trace_zero_sample(ctx, rng)
        rs = root_np_p(inst(ctx, y))
        assert rs.base_root in brute_force_roots(inst(ctx, y))


def test_np_p_rejections():
    with pytest.raises(WrongNpCase):
        root_np_p(inst(make_ctx(2, 3), 0))  # p does not divide n
    with pytest.raises(WrongNpCase):
        root_np_p(inst(make_ctx(2, 4), 0))  # p-part is 4, not 2
    with pytest.raises(WrongNpCase):
        root_np_p(inst(make_ctx(2, 4, f=2), 0))  # not over the prime field


# -- roots of unity witness (prime r) -------------------------------------------

def test_prime_r_r3_over_f64():
    # ord_3(2) = 2; the witness is a cube root of unity with tau = 1
    ctx = make_ctx(2, 6)
    rng = Random(47)
    y = trace_zero_sample(ctx, rng)
    rs = root_via_prime_r(inst(ctx, y), 3)
    assert rs.notes["e"] == 2 and rs.notes["tau"] == 1
    assert rs.base_root in brute_force_roots(inst(ctx, y))


def test_prime_r_r5_over_f3_n8():
    # ord_5(3) = 4, n/e = 2 coprime to 3
    ctx = make_ctx(3, 8)
    rng = Random(48)
    y = trace_zero_sample(ctx, rng)
    rs = root_via_prime_r(inst(ctx, y), 5)
    assert rs.notes["e"] == 4
    assert frobenius(rs.base_root, 1) - rs.base_root == y


def test_prime_r_precondition_failure():
    # ord_7(2) = 3 divides 12, but 12/3 = 4 is even
    ctx = make_ctx(2, 12)
    with pytest.raises(BadOrder):
        root_via_prime_r(inst(ctx, 0), 7)


def test_prime_r_r7_over_f2_n15():
    # same r over n = 15: quotient 5 is odd, so the form applies
    ctx = make_ctx(2, 15)
    rng = Random(49)
    y = trace_zero_sample(ctx, rng)
    rs = root_via_prime_r(inst(ctx, y), 7)
    assert rs.notes["e"] == 3
    assert frobenius(rs.base_root, 1) - rs.base_root == y


def test_prime_r_witness_period():
    # rebuild the witness from the notes and measure its period afresh
    from as90.fields import subfield_embed
    from as90.polys import PrimePoly

    ctx = make_ctx(2, 6)
    rng = Random(50)
    y = trace_zero_sample(ctx, rng)
    rs = root_via_prime_r(inst(ctx, y), 3)
    e, tau = rs.notes["e"], rs.notes["tau"]
    sub = make_ctx(2, e, modulus=PrimePoly.parse(rs.notes["zeta_min_poly"], 2))
    scalar = pow((ctx.n // e) * tau % 2, -1, 2)
    z = subfield_embed(sub.gen(), ctx) * scalar
    terms = partial_trace_terms(z, 4 * e)
    assert naive_period(terms, 2 * e) == e * ctx.p == 4


# -- cube root of unity witness (p = 2 mod 3) ------------------------------------

def least_cube_root_of_unity(ctx):
    """The lesser of c and c^2 by coefficient tuple, c = a^((q - 1)/3) for
    the first a in lex order with c != 1: the two roots of t^2 + t + 1."""
    for a in ctx.elements_lex():
        if not a.is_zero():
            c = a ** ((ctx.order - 1) // 3)
            if c != 1:
                return min(c, c * c, key=lambda e: e.coeffs)


def test_p2mod3_f64_coefficient_cycle():
    # coefficients (i//2) - (i%2) w cycle through 0, w, 1, w^2
    ctx = make_ctx(2, 6)
    rng = Random(51)
    y = trace_zero_sample(ctx, rng)
    rs = root_p2mod3(inst(ctx, y))
    w = least_cube_root_of_unity(ctx)
    cycle = [ctx.zero(), w, ctx.one(), w * w]
    x = ctx.zero()
    yw = y
    for i in range(6):
        x = x + cycle[i % 4] * yw
        yw = frobenius(yw, 1)
    assert x == rs.base_root  # n/2 = 3 is 1 mod 2, no rescale
    assert rs.notes["sign_variant"] == "statement"


def test_p2mod3_matches_cube_root_coefficients():
    # x = (n/2)^{-1} sum_i (floor(i/2) - (i mod 2) w) y^{p^i}, with w the
    # least cube root of unity by coefficient tuple, in the statement sign
    rng = Random(54)
    for p, n in [(2, 2), (2, 6), (2, 10), (5, 2), (5, 4), (5, 6), (11, 2),
                 (11, 4), (17, 2), (17, 4)]:
        ctx = make_ctx(p, n)
        w = least_cube_root_of_unity(ctx)
        scalar = pow((n // 2) % p, -1, p)
        for _ in range(3):
            y = trace_zero_sample(ctx, rng)
            x, yw = ctx.zero(), y
            for i in range(n):
                x = x + (ctx.elem(i // 2) - (i % 2) * w) * yw
                yw = frobenius(yw, 1)
            rs = root_p2mod3(inst(ctx, y))
            assert rs.base_root == x * scalar, (p, n, y)
            assert rs.notes == {"sign_variant": "statement", "omega": str(w)}


def test_p2mod3_f25_brute_checked():
    ctx = make_ctx(5, 2)
    rng = Random(52)
    for _ in range(10):
        y = trace_zero_sample(ctx, rng)
        rs = root_p2mod3(inst(ctx, y))
        assert rs.base_root in brute_force_roots(inst(ctx, y))


def test_p2mod3_f11_4():
    ctx = make_ctx(11, 4)
    rng = Random(53)
    y = trace_zero_sample(ctx, rng)
    rs = root_p2mod3(inst(ctx, y))
    assert frobenius(rs.base_root, 1) - rs.base_root == y
    assert rs.base_root in brute_force_roots(inst(ctx, y))


def test_p2mod3_rejections():
    with pytest.raises(WrongCongruence):
        root_p2mod3(inst(make_ctx(3, 2), 0))  # 3 = 0 mod 3
    with pytest.raises(WrongCongruence):
        root_p2mod3(inst(make_ctx(7, 2), 0))  # 7 = 1 mod 3
    with pytest.raises(WrongCongruence):
        root_p2mod3(inst(make_ctx(2, 5), 0))  # odd degree
    with pytest.raises(WrongCongruence):
        root_p2mod3(inst(make_ctx(2, 4), 0))  # n/2 even
    with pytest.raises(WrongCongruence):
        root_p2mod3(inst(make_ctx(2, 6, f=2), 0))


# -- reference-table witness (characteristic 2) -----------------------------------

def test_table_exponents_match_reference_data():
    for n_2, known in KNOWN_EXPONENTS.items():
        seq = table_exponent_sequence(n_2)
        assert list(seq[: len(known)]) == known
        assert len(seq) == 2 * n_2


def test_table_exponent_sequence_needs_a_builtin_row():
    # a two-part with no table row is a domain error that names the rows,
    # in the words of verify_table_entry
    for n_2 in (3, 64, 0, -1):
        with pytest.raises(BadInput, match=r"no built-in table row .* 2, 4, 8, 16, 32"):
            table_exponent_sequence(n_2)


def test_table_exponents_verify_by_exponentiation():
    # independent of discrete_log: raise z to each exponent directly
    from as90.artin_schreier import _table_ctx

    for n_2 in (4, 8):
        ctx = _table_ctx(n_2)
        z = ctx.gen()
        terms = partial_trace_terms(z, 2 * n_2)
        for k, x in zip(table_exponent_sequence(n_2), terms):
            if k is None:
                assert x.is_zero()
            else:
                assert z**k == x


def test_table_half_period_shift():
    # x_{i+e} = 1 + x_i for the reference witnesses
    from as90.artin_schreier import _table_ctx

    for n_2 in (2, 4, 8):
        ctx = _table_ctx(n_2)
        terms = partial_trace_terms(ctx.gen(), 2 * n_2 + n_2)
        for i in range(n_2):
            assert terms[i + n_2] == ctx.one() + terms[i]


def test_table_sequence_period_is_2n2():
    from as90.artin_schreier import _table_ctx

    for n_2 in (2, 4, 8, 16):
        ctx = _table_ctx(n_2)
        terms = partial_trace_terms(ctx.gen(), 4 * n_2)
        assert naive_period(terms, 2 * n_2) == 2 * n_2


def test_degree_32_exponents_against_golden_file():
    with open(GOLDEN / "table_exponents_32.json") as fh:
        payload = json.load(fh)
    assert payload["modulus"] == str(TABLE_ROWS[32][1])
    seq = table_exponent_sequence(32)
    assert list(seq) == payload["exponents"]
    # spot-verify a handful of entries by exponentiation
    from as90.artin_schreier import _table_ctx

    ctx = _table_ctx(32)
    z = ctx.gen()
    terms = partial_trace_terms(z, 64)
    for i in (1, 2, 31, 32, 33, 63):
        k = payload["exponents"][i]
        if k is None:
            assert terms[i].is_zero()
        else:
            assert z**k == terms[i]


def test_table_root_f16():
    ctx = make_ctx(2, 4, modulus="t^4+t^3+1")
    rng = Random(54)
    for _ in range(5):
        y = trace_zero_sample(ctx, rng)
        rs = root_char2_table(inst(ctx, y))
        assert rs.method == "table" and rs.notes["n_2"] == 4
        assert rs.base_root in brute_force_roots(inst(ctx, y))


def test_table_root_odd_part_retags_coprime():
    ctx = make_ctx(2, 3)
    rng = Random(55)
    y = trace_zero_sample(ctx, rng)
    rs = root_char2_table(inst(ctx, y))
    assert rs.method == "table" and rs.notes["n_2"] == 1
    assert rs.base_root == y * y


def test_table_root_mixed_degree():
    # n = 12: two-part 4, embedded witness keeps trace one
    ctx = make_ctx(2, 12)
    rng = Random(56)
    y = trace_zero_sample(ctx, rng)
    rs = root_char2_table(inst(ctx, y))
    assert rs.notes["n_2"] == 4
    assert frobenius(rs.base_root, 1) - rs.base_root == y


def test_table_unsupported_two_part():
    ctx = make_ctx(2, 64)
    with pytest.raises(UnsupportedTwoPart):
        root_char2_table(inst(ctx, 1))
    with pytest.raises(UnsupportedTwoPart):
        root_char2_table(inst(make_ctx(3, 3), 0))


# -- agreement between constructors ------------------------------------------------

def test_fast_paths_agree_up_to_subfield_shift():
    rng = Random(57)
    cases = [
        (make_ctx(2, 6), [root_via_prime_r, root_p2mod3, root_char2_table]),
        (make_ctx(3, 3), [root_np_p]),
        (make_ctx(2, 15), [root_coprime]),
    ]
    for ctx, constructors in cases:
        y = trace_zero_sample(ctx, rng)
        base = root_general(inst(ctx, y)).base_root
        for ctor in constructors:
            if ctor is root_via_prime_r:
                other = ctor(inst(ctx, y), 3).base_root
            else:
                other = ctor(inst(ctx, y)).base_root
            diff = other - base
            assert frobenius(diff, 1) == diff, ctor.__name__


def test_general_with_supplied_witness():
    ctx = make_ctx(2, 6)
    rng = Random(58)
    y = trace_zero_sample(ctx, rng)
    wit = find_trace_one(ctx, target_e=6, randomize=True, seed=3)
    rs = root_general(inst(ctx, y), witness=wit)
    assert rs.notes["witness_e"] == 6
    assert frobenius(rs.base_root, 1) - rs.base_root == y


# -- the dispatcher ------------------------------------------------------------------

def test_factor_dispatch_methods():
    rng = Random(59)
    table = [
        (make_ctx(2, 3), "coprime"),
        (make_ctx(3, 4, f=2), "coprime"),
        (make_ctx(2, 6), "table"),
        (make_ctx(2, 12), "table"),
        (make_ctx(3, 3), "np_p"),
        (make_ctx(5, 10), "np_p"),
        (make_ctx(2, 4, f=2), "general"),
        (make_ctx(3, 9), "general"),
    ]
    for ctx, expect in table:
        y = trace_zero_sample(ctx, rng)
        out = factor_artin_schreier(inst(ctx, y))
        assert isinstance(out, RootSet)
        assert out.method == expect, (ctx.describe(), out.method)
        assert frobenius(out.base_root, 1) - out.base_root == y


def test_factor_no_root_prime_base_is_irreducible():
    # q = p: no root forces irreducibility of t^p - t - y
    ctx = make_ctx(2, 2)
    w = ctx.gen()
    out = factor_artin_schreier(inst(ctx, w))
    assert isinstance(out, IrreducibilityReport)
    assert out.status == "irreducible"
    assert out.conclusion == "irreducible"
    # independent check: t^2 + t + w has no root, and a quadratic
    # without roots over its coefficient field is irreducible
    assert brute_force_roots(inst(ctx, w)) == []


def test_factor_no_root_composite_base_undetermined():
    # E = GF(4) with q = 4: the whole field is the base, trace is the
    # identity, and y = 1 has no root
    ctx = make_ctx(2, 2, f=2)
    one = ctx.one()
    assert trace(one, 2) != 0
    out = factor_artin_schreier(inst(ctx, one))
    assert out.status == "undetermined"
    assert out.conclusion == "no root; irreducibility undetermined"


def test_undetermined_case_really_factors():
    # t^4 + t + 1 over F_4 has no root yet splits into two quadratics:
    # (t^2 + t + w)(t^2 + t + w^2).  Multiply them out by hand.
    ctx = make_ctx(2, 2, f=2)
    w = ctx.gen()
    w2 = w * w
    # (t^2 + t + a)(t^2 + t + b) with a + b = 1, ab = 1:
    # t^4 + (a + b + 1) t^2 ... expand via coefficient dicts
    a, b = w, w2
    prod = {
        4: ctx.one(),
        3: ctx.one() + ctx.one(),
        2: a + b + ctx.one(),
        1: a + b,
        0: a * b,
    }
    assert prod[3].is_zero()
    assert prod[2].is_zero()  # w + w^2 + 1 = 0
    assert prod[1] == ctx.one()
    assert prod[0] == ctx.one()
    # so the product is t^4 + t + 1, the instance with y = 1
    assert not has_root(inst(ctx, 1))


def test_dispatch_handles_zero_y():
    ctx = make_ctx(2, 6)
    out = factor_artin_schreier(inst(ctx, 0))
    assert isinstance(out, RootSet)
    assert out.base_root in brute_force_roots(inst(ctx, 0))


def test_instance_coerces_y():
    ctx = make_ctx(3, 2)
    it = inst(ctx, 2)
    assert it.y == ctx.elem(2)
    assert it.polynomial_str() == "t^3-t-(2)"
    rel = make_ctx(3, 2, f=2)
    assert inst(rel, 0).polynomial_str().startswith("t^9-t-")


# -- one witness per context, dispatch by precondition ----------------------------------

def _chain_reference(ctx):
    """The condition chain factor_artin_schreier once spelled out by
    hand, kept here as the reference the dispatcher must agree with."""
    p = ctx.p
    if ctx.m % p != 0:
        return root_coprime
    if p == 2 and ctx.f == 1 and p_part(ctx.n, 2) in TABLE_ROWS:
        return root_char2_table
    if ctx.f == 1 and p % 3 == 2 and ctx.n % 2 == 0 and (ctx.n // 2) % p != 0:
        return root_p2mod3
    if ctx.f == 1 and p_part(ctx.n, p) == p:
        return root_np_p
    return root_general


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_dispatch_matches_condition_chain(p):
    rng = Random(p)
    for n in range(1, 17):
        for f in (d for d in range(1, n + 1) if n % d == 0):
            ctx = make_ctx(p, n, f=f)
            y = trace_zero_sample(ctx, rng)
            want = _chain_reference(ctx)(inst(ctx, y))
            got = factor_artin_schreier(inst(ctx, y))
            assert (got.method, got.base_root, got.notes) == (
                want.method, want.base_root, want.notes), (p, n, f)


def test_p2mod3_preconditions_are_always_preempted():
    # the cube-root form needs f = 1, p = 2 mod 3, n even and n/2 prime to
    # p.  For odd p, n is then prime to p and the coprime form applies;
    # for p = 2, n/2 is odd, the two-part is 2 and the table applies.  So
    # auto dispatch never tries it.
    grid = [(p, n) for p in range(2, 200) if is_prime(p) for n in range(1, 129)
            if p % 3 == 2 and n % 2 == 0 and (n // 2) % p != 0]
    assert len(grid) > 1000
    for p, n in grid:
        assert n % p != 0 or (p == 2 and p_part(n, 2) in TABLE_ROWS), (p, n)
    # on real contexts: the cube-root form builds, and dispatch picks another
    for p, n in grid:
        if p <= 17 and n <= 12:
            ctx = make_ctx(p, n)
            assert root_p2mod3(inst(ctx, 0)).method == "p2mod3"
            want = "coprime" if p != 2 else "table"
            assert factor_artin_schreier(inst(ctx, 0)).method == want, (p, n)


def test_table_root_takes_no_discrete_log(monkeypatch):
    # the reference exponents of two-part 16 are checked by powering
    from as90 import fields

    calls = []

    def counting(real):
        def log(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return log

    monkeypatch.setattr(fields, "discrete_log", counting(fields.discrete_log))
    monkeypatch.setattr(artin_schreier, "discrete_log", counting(artin_schreier.discrete_log))
    for cached in (artin_schreier._table_ctx, artin_schreier._check_reference_exponents,
                   artin_schreier.table_exponent_sequence):
        cached.cache_clear()
    ctx = make_ctx(2, 16)
    monkeypatch.setitem(ctx._cache, "witness", {})
    rs = factor_artin_schreier(inst(ctx, trace_zero_sample(ctx, Random(16))))
    assert rs.method == "table" and rs.notes["n_2"] == 16
    assert calls == []


# (constructor, extra arguments, context failing its precondition, error)
_PRECONDITION_FAILURES = [
    (root_coprime, (), (2, 4, 1), WrongNpCase),
    (root_char2_table, (), (2, 64, 1), UnsupportedTwoPart),
    (root_char2_table, (), (3, 3, 1), UnsupportedTwoPart),
    (root_p2mod3, (), (3, 2, 1), WrongCongruence),
    (root_p2mod3, (), (2, 4, 1), WrongCongruence),
    (root_np_p, (), (2, 4, 1), WrongNpCase),
    (root_np_p, (), (3, 6, 2), WrongNpCase),
    (root_via_prime_r, (7,), (2, 4, 1), BadOrder),
    (root_via_prime_r, (3,), (2, 4, 2), BadOrder),
]


@pytest.mark.parametrize("ctor, args, field, error", _PRECONDITION_FAILURES)
def test_precondition_error_comes_before_no_root(ctor, args, field, error):
    p, n, f = field
    ctx = make_ctx(p, n, f=f)
    y = next(y for y in ctx.elements_lex() if not has_root(inst(ctx, y)))
    with pytest.raises(error):
        ctor(inst(ctx, y), *args)


def test_precondition_errors_are_not_applicable():
    for _, _, _, error in _PRECONDITION_FAILURES:
        assert issubclass(error, NotApplicable)
    assert not issubclass(NoRoot, NotApplicable)


def _count_calls(monkeypatch, calls, names):
    """Record in ``calls`` each call of the named functions made through
    the namespaces of artin_schreier and hilbert90."""
    for mod in (artin_schreier, hilbert90):
        for name in names:
            def counted(*args, _original=getattr(mod, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)


@pytest.mark.parametrize("field, ctor, args", [
    ((2, 12, 1), root_general, ()),
    ((3, 12, 2), root_general, ()),
    ((2, 12, 1), root_char2_table, ()),
    ((7, 14, 1), root_np_p, ()),
    ((5, 4, 1), root_p2mod3, ()),
    ((2, 15, 1), root_via_prime_r, (7,)),
    ((5, 10, 1), factor_artin_schreier, ()),
    ((3, 9, 1), factor_artin_schreier, ()),
])
def test_second_query_builds_no_witness(monkeypatch, field, ctor, args):
    p, n, f = field
    ctx = make_ctx(p, n, f=f)
    rng = Random(n)
    first, second = (trace_zero_sample(ctx, rng) for _ in range(2))
    ctor(inst(ctx, first), *args)
    calls = []
    _count_calls(monkeypatch, calls, ("find_trace_one", "subfield_embed"))
    rs = ctor(inst(ctx, second), *args)
    assert frobenius(rs.base_root, 1) - rs.base_root == second
    assert calls == []


def test_results_do_not_share_notes():
    rng = Random(60)
    for p, n, f in [(2, 3, 1), (2, 12, 1), (3, 9, 1), (7, 14, 1), (5, 4, 1)]:
        ctx = make_ctx(p, n, f=f)
        first = factor_artin_schreier(inst(ctx, trace_zero_sample(ctx, rng)))
        kept = dict(first.notes)
        first.notes["scribbled"] = True
        first.notes.clear()
        second = factor_artin_schreier(inst(ctx, trace_zero_sample(ctx, rng)))
        assert second.notes == kept, (p, n, f)
    ctx = make_ctx(2, 3)
    first = root_char2_table(inst(ctx, 0))
    first.notes["n_2"] = 99
    assert root_char2_table(inst(ctx, 0)).notes["n_2"] == 1


def test_prime_r_takes_r_by_keyword():
    ctx = make_ctx(2, 6)
    y = trace_zero_sample(ctx, Random(61))
    assert root_via_prime_r(inst(ctx, y), r=3) == root_via_prime_r(inst(ctx, y), 3)


@pytest.mark.parametrize("field, ctor, args", [
    ((2, 64, 1), factor_artin_schreier, ()),
    ((2, 12, 1), factor_artin_schreier, ()),
    ((5, 10, 1), factor_artin_schreier, ()),
    ((7, 14, 1), factor_artin_schreier, ()),
    ((3, 12, 2), factor_artin_schreier, ()),
    ((2, 64, 1), root_general, ()),
    ((2, 12, 1), root_char2_table, ()),
    ((5, 4, 1), root_p2mod3, ()),
    ((2, 15, 1), root_via_prime_r, (7,)),
])
def test_warm_query_takes_one_trace(monkeypatch, field, ctor, args):
    # the trace criterion is checked once per query, and the cached
    # witness's trace is not checked again
    p, n, f = field
    ctx = make_ctx(p, n, f=f)
    rng = Random(n * p)
    first, second = (trace_zero_sample(ctx, rng) for _ in range(2))
    ctor(inst(ctx, first), *args)
    calls = []
    _count_calls(monkeypatch, calls, ("trace", "p_part"))
    rs = ctor(inst(ctx, second), *args)
    assert frobenius(rs.base_root, 1) - rs.base_root == second
    assert calls == ["trace"]


def test_skipped_constructor_keeps_its_not_applicable():
    ctx = make_ctx(2, 64)
    rng = Random(64)
    factor_artin_schreier(inst(ctx, trace_zero_sample(ctx, rng)))
    cached = ctx._cache["witness"]
    y = inst(ctx, trace_zero_sample(ctx, rng))
    raised = []
    for _ in range(5):
        with pytest.raises(WrongNpCase) as info:
            root_coprime(y)
        raised.append(info.value)
    assert all(exc is cached[("coprime",)] for exc in raised)
    assert str(raised[0]) == ("extension degree 64 is divisible by p=2; "
                              "the scalar-witness form needs them coprime")
    # re-raising does not pile up tracebacks in the cache
    depth = 0
    tb = raised[-1].__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    assert depth <= 3
    for key, error in [(("table",), UnsupportedTwoPart), (("np_p",), WrongNpCase)]:
        assert isinstance(cached[key], error), key


def test_public_constructor_still_refuses_nonzero_trace():
    ctx = make_ctx(2, 64)
    y = next(y for y in ctx.elements_lex() if not has_root(inst(ctx, y)))
    for _ in range(2):
        with pytest.raises(NoRoot):
            root_general(inst(ctx, y))
    assert isinstance(factor_artin_schreier(inst(ctx, y)), IrreducibilityReport)
