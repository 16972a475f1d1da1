"""Big/small classification, cyclotomic factorizations, tensor products,
and the reference-table verification battery."""

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from as90.bigpoly import (
    CYCLOTOMIC_DEGREE_LIMIT,
    TABLE_ROWS,
    TENSOR_DEGREE_LIMIT,
    _order_of_t_is,
    classify,
    cyclotomic,
    cyclotomic_prime,
    factor_cyclotomic,
    find_big_primitive,
    ord_mod,
    regenerate_table,
    tensor_product,
    verify_table_entry,
)
from as90.errors import (
    BadInput,
    EqualPrimes,
    NotFound,
    NotPrime,
    OrderTooLarge,
    ZeroPolynomial,
)
from as90.fields import element_order, make_ctx
from as90.intfactor import factorint
from as90.polys import PrimePoly, equal_degree_split, factor, is_irreducible, is_prime
from period_scan import naive_period, partial_sums_of_t


def P(text, p=2):
    return PrimePoly.parse(text, p)


# -- classification -------------------------------------------------------------

def test_classify_examples():
    assert classify(P("t^2+t+1")).is_big
    assert not classify(P("t^3+t+1")).is_big
    assert classify(P("t^3+t^2+1")).is_big
    assert classify(P("5", 7)).is_big  # constants count as big
    assert classify(P("t", 2)).value == "small"
    assert classify(P("t+1")).value == "big"


def test_classify_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        classify(PrimePoly.zero(2))


def test_classify_fields():
    c = classify(P("2*t^3+t^2+1", 3))
    assert c.degree == 3 and c.leading == 2 and c.subleading == 1


@settings(max_examples=60)
@given(st.integers(0, 2**12), st.integers(0, 2**12), st.sampled_from([2, 3, 5]))
def test_small_times_small_is_small(na, nb, p):
    rng = Random(na * 2**13 + nb)
    a = _random_monic_small(p, 1 + rng.randrange(4), rng)
    b = _random_monic_small(p, 1 + rng.randrange(4), rng)
    assert not classify(a * b).is_big


@settings(max_examples=60)
@given(st.integers(0, 2**12), st.sampled_from([2, 3, 5]))
def test_big_times_small_is_big(seed, p):
    rng = Random(seed)
    a = _random_monic_small(p, 1 + rng.randrange(4), rng)
    coeffs = [rng.randrange(p) for _ in range(rng.randrange(3))]
    sub = 1 + rng.randrange(p - 1) if p > 2 else 1
    b = PrimePoly(p, tuple(coeffs) + (sub, 1))
    assert classify(b).is_big
    assert classify(a * b).is_big


def _random_monic_small(p, deg, rng):
    # monic of the given degree with zero subleading coefficient
    coeffs = [rng.randrange(p) for _ in range(deg - 1)] + [0, 1]
    return PrimePoly(p, tuple(coeffs))


def test_big_reducible_has_big_factor():
    rng = Random(61)
    for p in (2, 3):
        hits = 0
        while hits < 20:
            deg = 2 + rng.randrange(5)
            f = PrimePoly(
                p, tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            )
            if f.is_zero() or is_irreducible(f) or not classify(f).is_big:
                continue
            hits += 1
            assert any(classify(g).is_big for g, _ in factor(f))


# -- orders and cyclotomics --------------------------------------------------------

def test_ord_mod_values():
    assert ord_mod(3, 2) == 2
    assert ord_mod(7, 2) == 3
    assert ord_mod(11, 2) == 10
    assert ord_mod(5, 3) == 4
    assert ord_mod(2, 7) == 1  # 7 = 1 mod 2


def _ord_mod_by_loop(r, p):
    """Reference for ord_mod: multiply by p until the power returns to 1."""
    cur, e = p % r, 1
    while cur != 1:
        cur, e = cur * p % r, e + 1
    return e


def test_ord_mod_matches_loop():
    primes = [r for r in range(2, 2000) if all(r % d for d in range(2, int(r**0.5) + 1))]
    for p in (2, 3, 5, 7):
        for r in primes:
            if r != p:
                assert ord_mod(r, p) == _ord_mod_by_loop(r, p), (r, p)


def test_ord_mod_errors():
    with pytest.raises(NotPrime):
        ord_mod(9, 2)
    with pytest.raises(NotPrime):
        ord_mod(7, 4)
    with pytest.raises(EqualPrimes):
        ord_mod(5, 5)


def test_cyclotomic_prime_all_ones():
    assert cyclotomic_prime(7, 2) == P("t^6+t^5+t^4+t^3+t^2+t+1")
    assert cyclotomic_prime(3, 5) == P("t^2+t+1", 5)
    with pytest.raises(NotPrime):
        cyclotomic_prime(6, 2)


def test_cyclotomic_prime_refuses_huge_degree():
    limit = CYCLOTOMIC_DEGREE_LIMIT
    below = next(r for r in range(limit + 1, 2, -1) if is_prime(r))
    above = next(r for r in range(limit + 2, 2 * limit + 2) if is_prime(r))
    assert cyclotomic_prime(below, 2).degree == below - 1
    for r in (above, 2**31 - 1):
        with pytest.raises(OrderTooLarge):
            cyclotomic_prime(r, 2)


def _cyclotomic_by_division(m, p, memo):
    """Reference: t^m - 1 divided by the cyclotomics of the proper divisors."""
    if (m, p) not in memo:
        den = PrimePoly.one(p)
        for d in range(1, m):
            if m % d == 0:
                den = den * _cyclotomic_by_division(d, p, memo)
        quo, rem = divmod(PrimePoly(p, (-1,) + (0,) * (m - 1) + (1,)), den)
        assert rem.is_zero()
        memo[m, p] = quo
    return memo[m, p]


def test_cyclotomic_matches_division_reference():
    memo = {}
    for p in (2, 3, 5, 7):
        for m in range(1, 400):
            assert cyclotomic(m, p) == _cyclotomic_by_division(m, p, memo), (m, p)


def test_cyclotomic_refuses_index_above_limit():
    limit = CYCLOTOMIC_DEGREE_LIMIT
    assert cyclotomic(limit + 1, 2).degree == 16 * 240  # 4097 = 17 * 241
    for m in (limit + 2, 10**12):
        with pytest.raises(OrderTooLarge):
            cyclotomic(m, 2)


def test_cyclotomic_general_agrees_on_primes():
    for r, p in [(3, 2), (5, 3), (7, 5)]:
        assert cyclotomic(r, p) == cyclotomic_prime(r, p)


def test_cyclotomic_composite():
    assert cyclotomic(1, 2) == P("t+1")  # t - 1
    assert cyclotomic(4, 3) == P("t^2+1", 3)
    assert cyclotomic(15, 2) == P("t^8+t^7+t^5+t^4+t^3+t+1")
    # t^m - 1 is the product of the cyclotomics of the divisors
    prod = PrimePoly.one(2)
    for d in (1, 3, 5, 15):
        prod = prod * cyclotomic(d, 2)
    assert prod == P("t^15+1")


def test_factor_cyclotomic_phi7():
    # sorted by coefficient tuple, constant term first
    out = factor_cyclotomic(7, 2)
    assert out == [P("t^3+t^2+1"), P("t^3+t+1")]
    assert classify(out[0]).is_big
    assert not classify(out[1]).is_big


def test_factor_cyclotomic_phi11_stays_whole():
    out = factor_cyclotomic(11, 2)
    assert len(out) == 1 and out[0].degree == 10
    assert classify(out[0]).is_big


def test_factor_cyclotomic_shape_and_determinism():
    for r, p in [(5, 2), (13, 3), (31, 2), (17, 2)]:
        e = ord_mod(r, p)
        out = factor_cyclotomic(r, p)
        assert len(out) == (r - 1) // e
        assert all(g.degree == e for g in out)
        assert all(is_irreducible(g) for g in out)
        prod = PrimePoly.one(p)
        for g in out:
            prod = prod * g
        assert prod == cyclotomic_prime(r, p)
        assert any(classify(g).is_big for g in out)
        assert factor_cyclotomic(r, p) == out


def _primes(lo, hi):
    return [r for r in range(lo, hi) if is_prime(r)]


#: (r, p) for factor_cyclotomic against seeded equal-degree splitting:
#: small p with r < 260, and p = 65521 with r < 60, where the Gauss
#: periods split Phi_r into linear factors, or into factors of degree
#: ord_r(65521) = 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 20 and 29.
CYCLOTOMIC_GRID = [(r, p) for p in (2, 3, 5, 7, 11, 13) for r in _primes(3, 260) if r != p]
CYCLOTOMIC_GRID += [(r, 65521) for r in _primes(3, 60)]


def test_factor_cyclotomic_matches_seeded_splitting():
    # Gauss periods against the Cantor-Zassenhaus split with the seed that
    # factor_cyclotomic used before it took no random draws
    for r, p in CYCLOTOMIC_GRID:
        e = ord_mod(r, p)
        phi = cyclotomic_prime(r, p)
        got = factor_cyclotomic(r, p)
        assert got == equal_degree_split(phi, e, Random(0xA590)), (r, p)
        assert all(g.degree == e for g in got) and len(got) == (r - 1) // e


# -- tensor products ------------------------------------------------------------------

def test_tensor_identity():
    # t - 1 has the single root 1, so it acts as the identity
    one_root = P("t+1")  # t - 1 over F_2
    b = P("t^3+t^2+1")
    assert tensor_product(one_root, b) == b
    assert tensor_product(b, one_root) == b


def test_tensor_degree_multiplies():
    rng = Random(62)
    for p in (2, 3):
        for _ in range(10):
            a = _random_monic(p, 1 + rng.randrange(3), rng)
            b = _random_monic(p, 1 + rng.randrange(3), rng)
            assert tensor_product(a, b).degree == a.degree * b.degree


def _random_monic(p, deg, rng):
    return PrimePoly(p, tuple(rng.randrange(p) for _ in range(deg)) + (1,))


def test_tensor_roots_multiply_pairwise():
    # split case over F_7: roots {1, 2} times root {3} -> {3, 6}
    a = P("t^2+4*t+2", 7)  # (t-1)(t-2)
    b = P("t+4", 7)  # t - 3
    out = tensor_product(a, b)
    assert out == P("t^2+5*t+4", 7)  # (t-3)(t-6)


def test_tensor_of_cyclotomics():
    # products of primitive 3rd and 5th roots of unity are exactly the
    # primitive 15th roots
    assert tensor_product(cyclotomic(3, 2), cyclotomic(5, 2)) == cyclotomic(15, 2)


def test_tensor_preserves_bigness_sampled():
    rng = Random(63)
    for p in (2, 3):
        hits = 0
        while hits < 15:
            a = _random_monic(p, 1 + rng.randrange(3), rng)
            b = _random_monic(p, 1 + rng.randrange(3), rng)
            if not (
                is_irreducible(a)
                and is_irreducible(b)
                and classify(a).is_big
                and classify(b).is_big
            ):
                continue
            hits += 1
            assert classify(tensor_product(a, b)).is_big


def test_tensor_refuses_degree_above_limit():
    limit = TENSOR_DEGREE_LIMIT
    assert tensor_product(PrimePoly.x(2, limit), P("t+1")) == PrimePoly.x(2, limit)
    with pytest.raises(OrderTooLarge):
        tensor_product(PrimePoly.x(2, limit + 1), P("t+1"))
    with pytest.raises(OrderTooLarge):
        tensor_product(PrimePoly.x(2, 17), PrimePoly.x(2, 16))


def _reference_tensor(a, b):
    """lead(a)^deg(b) lead(b)^deg(a) times the characteristic polynomial
    of the Kronecker product of the companion matrices of a and b, by
    Hessenberg reduction."""
    p, m, n = a.p, a.degree, b.degree
    scale = pow(a.leading(), n, p) * pow(b.leading(), m, p) % p
    ca, cb = _companion(a.monic()), _companion(b.monic())
    kron = [[ca[i1][j1] * cb[i2][j2] % p for j1 in range(m) for j2 in range(n)]
            for i1 in range(m) for i2 in range(n)]
    return _charpoly(kron, p) * scale


def _companion(f):
    n, p = f.degree, f.p
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i in range(n):
        mat[i][n - 1] = -f[i] % p
    return mat


def _charpoly(mat, p):
    """det(tI - M) over F_p: reduce to upper Hessenberg form by
    similarity, then expand along the last column row by row."""
    n = len(mat)
    h = [row[:] for row in mat]
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k] % p), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[piv], h[k + 1] = h[k + 1], h[piv]
            for row in h:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        inv = pow(h[k + 1][k], -1, p)
        for i in range(k + 2, n):
            fac = h[i][k] * inv % p
            if fac:
                for j in range(k, n):
                    h[i][j] = (h[i][j] - fac * h[k + 1][j]) % p
                for r in range(n):
                    h[r][k + 1] = (h[r][k + 1] + fac * h[r][i]) % p
    t = PrimePoly.x(p)
    charpolys = [PrimePoly.one(p)]
    for m in range(1, n + 1):
        cur = (t - PrimePoly(p, (h[m - 1][m - 1],))) * charpolys[m - 1]
        sub = 1
        for i in range(1, m):
            sub = sub * h[m - i][m - i - 1] % p
            cur = cur - charpolys[m - 1 - i] * (h[m - 1 - i][m - 1] * sub)
        charpolys.append(cur)
    return charpolys[n]


def _grid_factor(p, deg, rng):
    """A random factor of degree deg: non-monic, with a repeated root or
    a zero root, each some of the time."""
    if deg == 0:
        return PrimePoly(p, (rng.randrange(1, p),))
    kind = rng.randrange(4)
    f = _random_monic(p, deg, rng)
    if kind == 1 and deg >= 2:  # a repeated root
        root = PrimePoly(p, (rng.randrange(p), 1))
        f = root * root * _random_monic(p, deg - 2, rng)
    elif kind == 2:  # a zero root
        f = PrimePoly.x(p) * _random_monic(p, deg - 1, rng)
    if rng.randrange(2):
        f = f * rng.randrange(1, p)
    return f


def test_tensor_matches_kronecker_reference_on_grid():
    rng = Random(64)
    for p in (2, 3, 5, 7, 65521, 2**61 - 1):
        for m in range(13):
            a = _grid_factor(p, m, rng)
            b = _grid_factor(p, rng.randrange(13), rng)
            assert tensor_product(a, b) == _reference_tensor(a, b), (a, b)


def test_tensor_matches_reference_at_full_degree():
    # N = 256 >= p: the coefficients are recovered mod 2^256
    a, b = TABLE_ROWS[16][1], P("t^16+t^15+t^8+t+1")
    out = tensor_product(a, b)
    assert out.degree == TENSOR_DEGREE_LIMIT
    assert out == _reference_tensor(a, b)


def test_tensor_with_a_constant_is_a_constant():
    # a constant has no roots; only the leading-coefficient scale is left
    assert tensor_product(P("5", 7), P("3*t^2+1", 7)) == P("4", 7)  # 5^2
    assert tensor_product(P("3*t^2+1", 7), P("5", 7)) == P("4", 7)
    assert tensor_product(P("5", 7), P("6", 7)) == P("1", 7)


def test_tensor_rejects_zero_and_mixed():
    with pytest.raises(ZeroPolynomial):
        tensor_product(PrimePoly.zero(2), P("t+1"))
    with pytest.raises(ValueError):
        tensor_product(P("t+1", 2), P("t+1", 3))


# -- primitive search and the reference table ------------------------------------------

def test_find_big_primitive_small_degrees():
    assert find_big_primitive(2) == P("t^2+t+1")
    assert find_big_primitive(4) == P("t^4+t^3+1")
    out = find_big_primitive(6)
    assert verify_table_entry(6, out).passed


def test_find_big_primitive_odd_characteristic():
    out = find_big_primitive(2, p=3)
    assert is_irreducible(out) and classify(out).is_big
    ctx = make_ctx(3, 2, modulus=out)
    assert element_order(ctx.gen()) == 8


def test_find_big_primitive_degree_one():
    # t + c has the root -c; the least c for which -c generates F_p^*
    expected = {2: 1, 3: 1, 5: 2, 7: 2, 11: 3, 13: 2}
    for p, c in expected.items():
        brute = next(c for c in range(1, p)
                     if len({pow(-c % p, k, p) for k in range(1, p)}) == p - 1)
        assert brute == c
        assert find_big_primitive(1, p) == PrimePoly(p, (c, 1))
    # constants with -c no generator are skipped and do not count
    assert str(find_big_primitive(1, 7, budget=1)) == "t+2"
    with pytest.raises(NotFound):
        find_big_primitive(1, 7, budget=0)


def test_find_big_primitive_budget():
    with pytest.raises(NotFound):
        find_big_primitive(8, budget=3)


#: find_big_primitive(e, p) -> (answer, candidates examined), for inputs
#: whose search once spent its budget on constant terms c with (-1)^e c
#: not a generator of F_p^*, which no primitive polynomial has.
SKIPPED_CONSTANTS = {
    (12, 3): ("t^12+2t^11+t^10+t^9+t^8+2", 28),
    (9, 5): ("t^9+4t^8+2t^7+2", 12),
    (7, 7): ("t^7+5t^6+2", 5),
    (8, 5): ("t^8+t^7+2t^6+2", 9),
}


@pytest.mark.parametrize("e, p", sorted(SKIPPED_CONSTANTS))
def test_find_big_primitive_skips_impossible_constants(e, p):
    want, seen = SKIPPED_CONSTANTS[e, p]
    got = find_big_primitive(e, p, budget=64)
    assert str(got) == want
    assert find_big_primitive(e, p, budget=seen) == got
    with pytest.raises(NotFound):
        find_big_primitive(e, p, budget=seen - 1)
    assert element_order(make_ctx(p, e, modulus=got).gen()) == p**e - 1


#: The answers of find_big_primitive(e, p) with the default budget, from
#: before constants that no primitive polynomial has were skipped; skipping
#: them changes how many candidates a search examines, never its answer.
BIG_PRIMITIVE_ANSWERS = {
    2: ["t^2+t+1", "t^3+t^2+1", "t^4+t^3+1", "t^5+t^4+t^3+t^2+1", "t^6+t^5+1", "t^7+t^6+1",
        "t^8+t^7+t^5+t^3+1", "t^9+t^8+t^6+t^5+1", "t^10+t^9+t^7+t^6+1",
        "t^11+t^10+t^9+t^7+1", "t^12+t^11+t^8+t^6+1", "t^13+t^12+t^10+t^9+1",
        "t^14+t^13+t^11+t^9+1", "t^15+t^14+1", "t^16+t^15+t^14+t^13+t^12+t^11+1",
        "t^17+t^16+t^15+t^14+1", "t^18+t^17+t^16+t^13+1", "t^19+t^18+t^17+t^14+1",
        "t^20+t^19+t^16+t^14+1", "t^21+t^20+t^19+t^16+1", "t^22+t^21+1",
        "t^23+t^22+t^20+t^18+1", "t^24+t^23+t^21+t^20+1"],
    3: ["t^2+t+2", "t^3+2t^2+1", "t^4+t^3+2", "t^5+2t^4+1", "t^6+t^5+2", "t^7+2t^6+t^5+1",
        "t^8+t^7+2t^6+t^4+2", "t^9+t^8+2t^7+2t^6+1", "t^10+t^9+t^7+2"],
    5: ["t^2+t+2", "t^3+t^2+2", "t^4+t^3+2t^2+2", "t^5+3t^4+2", "t^6+t^5+2"],
    7: ["t^2+t+3", "t^3+t^2+t+2", "t^4+t^3+t^2+3", "t^5+2t^4+2"],
    11: ["t^2+4t+2", "t^3+t^2+3", "t^4+4t^3+2"],
    13: ["t^2+t+2", "t^3+t^2+2", "t^4+6t^3+2t^2+2"],
}


@pytest.mark.parametrize("p", sorted(BIG_PRIMITIVE_ANSWERS))
def test_find_big_primitive_answers_unchanged(p):
    for e, want in enumerate(BIG_PRIMITIVE_ANSWERS[p], start=2):
        assert str(find_big_primitive(e, p)) == want, (p, e)


def test_builtin_rows_all_verify():
    for n_2 in TABLE_ROWS:
        rep = verify_table_entry(n_2)
        assert rep.passed, (n_2, rep.checks)
        assert set(rep.checks) == {
            "degree", "irreducible", "big", "order", "trace", "period",
        }


def test_verify_rejects_non_big_candidate():
    rep = verify_table_entry(4, P("t^4+t+1"))
    assert not rep.passed
    assert not rep.checks["big"]
    assert not rep.checks["trace"]
    assert rep.checks["order"]  # t is still primitive there
    assert rep.to_dict()["pass"] is False


def test_verify_pins_wrong_degree():
    rep = verify_table_entry(8, P("t^4+t^3+1"))
    assert not rep.checks["degree"] and not rep.passed


def test_commonly_printed_degree16_row_fails_order_only():
    # the frequently quoted t^16+t^15+t^8+t+1 divides the 257th
    # cyclotomic polynomial: its root has order 257, so every check
    # except primitive order passes
    rep = verify_table_entry(16, P("t^16+t^15+t^8+t+1"))
    assert not rep.passed
    assert rep.checks == {
        "degree": True,
        "irreducible": True,
        "big": True,
        "order": False,
        "trace": True,
        "period": True,
    }
    ctx = make_ctx(2, 16, modulus="t^16+t^15+t^8+t+1")
    assert element_order(ctx.gen()) == 257


def test_verify_refuses_degrees_below_one():
    cases = ((0, P("1")), (0, P("t+1")), (-1, P("t+1")), (-1, PrimePoly.zero(2)), (-1, None))
    for n_2, candidate in cases:
        with pytest.raises(BadInput):
            verify_table_entry(n_2, candidate)


def test_verify_without_candidate_needs_a_builtin_row():
    # a degree with no built-in row is a domain error that names the rows
    for n_2 in (1, 3, 6, 64):
        with pytest.raises(BadInput, match=r"2, 4, 8, 16, 32"):
            verify_table_entry(n_2)
    assert verify_table_entry(6, find_big_primitive(6)).passed


def test_table_period_rule_matches_reference_scan():
    # the period check reads x_d = 0 at the divisors of 2e; the reference
    # compares 4e stored partial sums term by term.  Candidates of degree
    # 1 .. 24: the rows, the quoted degree-16 literal and seeded ones,
    # reducible ones and ones divisible by t among them
    rng = Random(0x7AB1E)
    candidates = [row for _, row in TABLE_ROWS.values()] + [P("t^16+t^15+t^8+t+1")]
    for _ in range(1200):
        e = rng.randrange(1, 25)
        candidates.append(PrimePoly(2, [rng.randrange(2) for _ in range(e)] + [1]))
    full = 0
    for f in candidates:
        e = f.degree
        want = naive_period(partial_sums_of_t(f, 4 * e), 2 * e) == 2 * e
        assert verify_table_entry(e, f).checks["period"] == want, f
        full += want
    assert 50 < full < len(candidates) - 50


def test_verify_trace_check_on_every_degree_6_candidate():
    # the trace check is Tr(t) = 1 in F_2[t]/(f), reducible f included
    t = PrimePoly.x(2)
    for mid in product((0, 1), repeat=5):
        f = PrimePoly(2, (1,) + mid + (1,))
        acc = PrimePoly.zero(2)
        for i in range(6):
            acc = acc + t.pow_mod(2**i, f)
        assert verify_table_entry(6, f).checks["trace"] == (acc == PrimePoly.one(2)), f


def test_regenerate_table():
    rows = regenerate_table(degrees=(2, 4, 8))
    assert [n for n, _, _ in rows] == [2, 4, 8]
    assert rows[0][1] == "ω"
    for n_2, _, poly in rows:
        assert verify_table_entry(n_2, poly).passed
    assert regenerate_table(degrees=(2, 4, 8)) == rows


def test_order_check_may_skip_the_full_power_only_for_irreducibles():
    # find_big_primitive skips t^(p^e - 1) = 1, which Lagrange gives for
    # an irreducible f with f(0) != 0; verify_table_entry keeps it, since
    # its candidate may be reducible
    for p, e in ((2, 1), (2, 2), (2, 6), (2, 8), (3, 1), (3, 4), (5, 2)):
        group = p**e - 1
        factors = factorint(group)
        for rest in product(range(p), repeat=e):
            f = PrimePoly(p, rest + (1,))
            if f[0] == 0 or not is_irreducible(f):
                continue
            want = element_order(make_ctx(p, e, modulus=str(f)).gen()) == group
            assert _order_of_t_is(f, group, factors, divides=True) == want, f
            assert _order_of_t_is(f, group, factors) == want, f
    # (t^2+t+1)^2: t has order 6, so t^15 = t^3 != 1, and neither t^5 nor
    # t^3 is 1: only the full power shows that the order is not 15
    f = P("t^4+t^2+1")
    assert f == P("t^2+t+1") * P("t^2+t+1")
    assert _order_of_t_is(f, 15, {3: 1, 5: 1}, divides=True)
    assert not _order_of_t_is(f, 15, {3: 1, 5: 1})
    rep = verify_table_entry(4, f)
    assert not rep.checks["order"] and not rep.checks["irreducible"]
    assert not verify_table_entry(16, P("t^16+t^15+t^8+t+1")).checks["order"]
