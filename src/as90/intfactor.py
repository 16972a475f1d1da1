"""Integer factorization sized for group orders up to 2^64.

The primes below 10^4 are stripped by one gcd with their product, built
once per process at the first call; the primes are walked, and divided
out, only while that gcd exceeds 1.  Inputs above 2^64, the largest group
order the field scale limit allows, are refused rather than attempted.
Each cofactor left is tested once by a deterministic Miller-Rabin test.
The primes are returned in ascending order.

A composite cofactor is split by its algebraic factors first.  Group
orders have the form m = r^k - 1, and r^d - 1 divides m for every d
dividing k (Brillhart et al., Factorizations of b^n +- 1, 1988), so a
gcd with r^d - 1 splits off whole cyclotomic parts: 2^62 - 1 =
3 * 715827883 * 2147483647 loses 2^31 - 1 to one gcd.
The form is found once, with integer k-th roots of m + 1, taking the
least r.  Pollard rho with Floyd's cycle detection splits what no such
gcd splits.  Any gcd strictly between 1 and a cofactor divides it, so
the answer does not depend on the form being found.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from .errors import BadInput, FactorizationTooHard
from .polys import is_prime

_STRIP_LIMIT = 10**4
_FACTOR_BOUND = 2**64


@lru_cache(maxsize=1)
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below _STRIP_LIMIT, by the sieve of Eratosthenes, and
    their product: 1229 primes, a product of about 14000 bits."""
    sieve = bytearray([1]) * _STRIP_LIMIT
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_STRIP_LIMIT - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, _STRIP_LIMIT, i)))
    primes = tuple(compress(range(_STRIP_LIMIT), sieve))
    return primes, math.prod(primes)


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n (n_p in multiplicative notation)."""
    if n < 1:
        raise BadInput("p_part needs a positive integer")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def least_divisor(e: int, primes, holds) -> int:
    """The c dividing e for which holds(d) means that c divides d (an
    order, a degree, a period), given holds(e) and the primes of e: each
    prime is divided out while holds stays true (Pohlig & Hellman, 1978).
    """
    for ell in primes:
        while e % ell == 0 and holds(e // ell):
            e //= ell
    return e


def _pollard_rho(m: int) -> int:
    """A nontrivial factor of composite odd m."""
    if m % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(abs(x - y), m)
        if d != m:
            return d
    raise FactorizationTooHard(f"pollard rho gave up on {m}")


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 0: the largest r with r^k <= n."""
    r = round(n ** (1.0 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _power_form(m: int):
    """(r, k) with m = r^k - 1, k >= 2 and r least, or None."""
    n = m + 1
    for k in range(n.bit_length() - 1, 1, -1):
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


def _algebraic_factors(m: int) -> list[int]:
    """The r^d - 1 for the proper divisors d of k, when m = r^k - 1 with
    k >= 2 and r least; none when m has no such form."""
    form = _power_form(m)
    if form is None:
        return []
    r, k = form
    return [r**d - 1 for d in range(1, k) if k % d == 0]


def factorint(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 as {prime: exponent}, the primes in
    ascending order; m above 2^64 raises FactorizationTooHard."""
    if m < 1:
        raise BadInput("factorint needs a positive integer")
    if m > _FACTOR_BOUND:
        raise FactorizationTooHard(
            f"{m} exceeds the factorization ceiling {_FACTOR_BOUND}"
        )
    whole = m
    out: dict[int, int] = {}
    primes, product = _small_primes()
    g = math.gcd(m, product)
    for q in primes:
        if g == 1:
            break
        if g % q == 0:
            g //= q
            k = 0
            while m % q == 0:
                m //= q
                k += 1
            out[q] = k
    stack, algebraic = ([m] if m > 1 else []), None
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        if algebraic is None:
            algebraic = _algebraic_factors(whole)
        f = next((g for g in (math.gcd(a, v) for a in algebraic) if 1 < g < v), None)
        if f is None:
            f = _pollard_rho(v)
        stack.append(f)
        stack.append(v // f)
    return dict(sorted(out.items()))
