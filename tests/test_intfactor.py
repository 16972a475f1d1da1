"""Integer factorization of group orders up to 2^64."""

import pytest

from as90.errors import FactorizationTooHard
from as90.intfactor import _power_form, factorint, least_divisor
from as90.polys import is_prime

#: m -> factorint(m) as (prime, exponent) pairs, primes ascending: the
#: group orders of the poly-search benchmark, then primes and semiprimes
#: near 2^64, some with a factor above the trial limit, then prime powers
#: and products with factors just above 10^4, where trial division stops
#: and rho must split them.  The pairs are those of the factorizer that
#: trial-divided up to 10^6 before any primality test.
REFERENCE = {
    2**8 - 1: [(3, 1), (5, 1), (17, 1)],
    2**16 - 1: [(3, 1), (5, 1), (17, 1), (257, 1)],
    2**32 - 1: [(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)],
    2**48 - 1: [(3, 2), (5, 1), (7, 1), (13, 1), (17, 1), (97, 1), (241, 1), (257, 1),
                (673, 1)],
    2**61 - 1: [(2305843009213693951, 1)],
    2**62 - 1: [(3, 1), (715827883, 1), (2147483647, 1)],
    2**64 - 1: [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)],
    3**12 - 1: [(2, 4), (5, 1), (7, 1), (13, 1), (73, 1)],
    3**40 - 1: [(2, 5), (5, 2), (11, 2), (41, 1), (61, 1), (1181, 1), (42521761, 1)],
    5**27 - 1: [(2, 2), (19, 1), (31, 1), (109, 1), (271, 1), (829, 1), (4159, 1),
                (31051, 1)],
    7**14 - 1: [(2, 4), (3, 1), (29, 1), (113, 1), (911, 1), (4733, 1)],
    65521**4 - 1: [(2, 6), (3, 2), (5, 1), (7, 1), (13, 1), (37, 1), (181, 2), (569, 1),
                   (101957, 1)],
    4294967291 * 4294967279: [(4294967279, 1), (4294967291, 1)],
    2097143 * 8796130771093: [(2097143, 1), (8796130771093, 1)],
    3 * 6148914691236517199: [(3, 1), (6148914691236517199, 1)],
    1000003 * 18446688733531: [(1000003, 1), (18446688733531, 1)],
    2**64 - 59: [(2**64 - 59, 1)],
    2**63 - 25: [(2**63 - 25, 1)],
    10007**2: [(10007, 2)],
    10007**3: [(10007, 3)],
    10007 * 10009 * 10037: [(10007, 1), (10009, 1), (10037, 1)],
    999983 * 1000003: [(999983, 1), (1000003, 1)],
    10007 * 1000003 * 1000033: [(10007, 1), (1000003, 1), (1000033, 1)],
    10007**2 * 4294967291: [(10007, 2), (4294967291, 1)],
    3 * 65537 * 6700417: [(3, 1), (65537, 1), (6700417, 1)],
}


@pytest.mark.parametrize("m", sorted(REFERENCE))
def test_factorint_matches_reference(m):
    assert list(factorint(m).items()) == REFERENCE[m]


def test_factorint_small_and_refused():
    assert factorint(1) == {}
    assert factorint(2) == {2: 1}
    assert factorint(2**20) == {2: 20}
    assert factorint(2**64) == {2: 64}
    with pytest.raises(FactorizationTooHard):
        factorint(2**64 + 1)
    with pytest.raises(ValueError):
        factorint(0)



def test_least_divisor_matches_brute_force():
    # holds(d) is "c divides d": the descent from e ends at the least
    # divisor that holds, asks about divisors of e only, and does not
    # depend on the order of the primes
    for e in range(1, 400):
        primes = list(factorint(e))
        divisors = [d for d in range(1, e + 1) if e % d == 0]
        for c in divisors:
            asked = []

            def holds(d, c=c):
                asked.append(d)
                return d % c == 0

            want = min(d for d in divisors if d % c == 0)
            assert least_divisor(e, primes, holds) == want
            assert least_divisor(e, primes[::-1], holds) == want
            assert all(e % d == 0 for d in asked)


def _brute_power_form(m):
    """(r, k) with m + 1 = r^k, k >= 2, r least, or None: every k, and
    for each the least r with r^k >= m + 1 by bisection."""
    n = m + 1
    hits = []
    for k in range(2, n.bit_length() + 1):
        lo, hi = 1, 1 << (n.bit_length() // k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**k < n:
                lo = mid + 1
            else:
                hi = mid
        if lo >= 2 and lo**k == n:
            hits.append((lo, k))
    return min(hits, default=None)


def test_power_form_matches_brute_force():
    # every m <= 2^64 with m + 1 = r^k, 2 <= r <= 1000, and its neighbours
    orders = set()
    for r in range(2, 1001):
        n = r * r
        while n - 1 <= 2**64:
            orders.add(n - 1)
            n *= r
    assert 2**64 - 1 in orders and 1000**6 - 1 in orders
    for m in sorted(orders):
        for v in (m - 1, m, m + 1):
            assert _power_form(v) == _brute_power_form(v), v
        assert _power_form(m) is not None


GROUP_BASES = (2, 3, 5, 6, 7, 10, 65521)


@pytest.mark.parametrize("r", GROUP_BASES)
def test_factorint_group_orders(r):
    # r^k - 1 up to 2^64: the primes multiply back to m, ascending
    k = 2
    while r**k - 1 <= 2**64:
        m = r**k - 1
        got = factorint(m)
        assert list(got) == sorted(got)
        assert all(is_prime(q) and e >= 1 for q, e in got.items())
        total = 1
        for q, e in got.items():
            total *= q**e
        assert total == m
        k += 1


def test_algebraic_split_and_rho(monkeypatch):
    from as90 import intfactor

    calls = []
    rho = intfactor._pollard_rho
    monkeypatch.setattr(intfactor, "_pollard_rho", lambda v: calls.append(v) or rho(v))
    # 2^31 - 1 divides 2^62 - 1, so one gcd splits what trial division leaves
    assert factorint(2**62 - 1) == {3: 1, 715827883: 1, 2147483647: 1}
    assert calls == []
    # 59 is prime, so the primitive part 179951 * 3203431780337 is all
    # that is left, and only rho splits it
    assert factorint(2**59 - 1) == {179951: 1, 3203431780337: 1}
    assert calls == [2**59 - 1]
    # without the algebraic factors, rho alone gives the same answer
    monkeypatch.setattr(intfactor, "_algebraic_factors", lambda m: [])
    for m in REFERENCE:
        assert list(factorint(m).items()) == REFERENCE[m]


def _trial_division(m):
    """Reference: divide by every d with d * d <= m."""
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_factorint_matches_trial_division_below_twenty_thousand():
    for m in range(1, 2 * 10**4):
        got = factorint(m)
        assert got == _trial_division(m), m
        assert list(got) == sorted(got)


#: primes on both sides of 10^4, where the gcd with the product of the
#: primes below 10^4 stops stripping, and two far above it
BELOW = (2, 3, 9931, 9941, 9949, 9967, 9973)
ABOVE = (10007, 10009, 10037, 1000003, 4294967291)


@pytest.mark.parametrize("exponents", [
    {9973: 1, 10007: 1}, {9973: 2, 10007: 2}, {9967: 1, 9973: 1, 10007: 1, 10009: 1},
    {2: 5, 9931: 1, 1000003: 1}, {3: 1, 9941: 1, 10037: 1, 4294967291: 1},
    {9949: 3, 10009: 1}, {2: 1, 3: 1, 10007: 1, 10009: 1, 10037: 1}, {9973: 1, 4294967291: 1},
    {10007: 2, 1000003: 1}, {10007: 1, 4294967291: 1}, {2: 63}, {3: 40}, {9973: 4},
])
def test_factorint_products_across_the_strip_limit(exponents):
    assert set(exponents) <= set(BELOW + ABOVE)
    m = 1
    for q, k in exponents.items():
        m *= q**k
    assert m <= 2**64
    assert factorint(m) == dict(sorted(exponents.items()))


def test_each_cofactor_is_tested_once(monkeypatch):
    from as90 import intfactor

    seen = []
    monkeypatch.setattr(intfactor, "is_prime", lambda v: seen.append(v) or is_prime(v))
    assert factorint(2**61 - 1) == {2**61 - 1: 1}
    assert seen == [2**61 - 1]
    seen.clear()
    assert factorint(2**64 - 1) == dict(REFERENCE[2**64 - 1])
    assert len(seen) == len(set(seen))
