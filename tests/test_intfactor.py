"""Integer factorization of group orders up to 2^64."""

import pytest

from as90.errors import FactorizationTooHard
from as90.intfactor import factorint, least_divisor

#: m -> factorint(m) as (prime, exponent) pairs in the order returned by
#: the factorizer that trial-divided up to 10^6 before any primality
#: test: the group orders of the poly-search benchmark, then primes and
#: semiprimes near 2^64, some with a factor above the trial limit, then
#: prime powers and products with factors just above 10^4, where trial
#: division now stops and rho must split them.
REFERENCE = {
    2**8 - 1: [(3, 1), (5, 1), (17, 1)],
    2**16 - 1: [(3, 1), (5, 1), (17, 1), (257, 1)],
    2**32 - 1: [(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)],
    2**48 - 1: [(3, 2), (5, 1), (7, 1), (13, 1), (17, 1), (97, 1), (241, 1), (257, 1),
                (673, 1)],
    2**61 - 1: [(2305843009213693951, 1)],
    2**62 - 1: [(3, 1), (2147483647, 1), (715827883, 1)],
    2**64 - 1: [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)],
    3**12 - 1: [(2, 4), (5, 1), (7, 1), (13, 1), (73, 1)],
    3**40 - 1: [(2, 5), (5, 2), (11, 2), (41, 1), (61, 1), (1181, 1), (42521761, 1)],
    5**27 - 1: [(2, 2), (19, 1), (31, 1), (109, 1), (271, 1), (829, 1), (4159, 1),
                (31051, 1)],
    7**14 - 1: [(2, 4), (3, 1), (29, 1), (113, 1), (911, 1), (4733, 1)],
    65521**4 - 1: [(2, 6), (3, 2), (5, 1), (7, 1), (13, 1), (37, 1), (181, 2), (569, 1),
                   (101957, 1)],
    4294967291 * 4294967279: [(4294967291, 1), (4294967279, 1)],
    2097143 * 8796130771093: [(8796130771093, 1), (2097143, 1)],
    3 * 6148914691236517199: [(3, 1), (6148914691236517199, 1)],
    1000003 * 18446688733531: [(18446688733531, 1), (1000003, 1)],
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
