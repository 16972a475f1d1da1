"""Integer factorization sized for group orders up to 2^64.

Trial division up to 10^4 strips small primes, and stops as soon as
what is left passes a deterministic Miller-Rabin test, which runs first
and again after each prime is stripped; a composite remainder is split
by Pollard rho with Floyd's cycle detection.  Inputs above 2^64, the
largest group order the field scale limit allows, are refused rather
than attempted.

The order of the returned factors does not depend on where trial
division stops: prime factors up to 10^6 come first, smallest first,
and larger ones follow in the order rho splits them off.
"""

from __future__ import annotations

import math

from .errors import BadInput, FactorizationTooHard
from .polys import is_prime

_TRIAL_LIMIT = 10**4
_SORTED_LIMIT = 10**6
_FACTOR_BOUND = 2**64


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


def factorint(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 as {prime: exponent}; m above 2^64
    raises FactorizationTooHard."""
    if m < 1:
        raise BadInput("factorint needs a positive integer")
    if m > _FACTOR_BOUND:
        raise FactorizationTooHard(
            f"{m} exceeds the factorization ceiling {_FACTOR_BOUND}"
        )
    out: dict[int, int] = {}
    d = 2
    prime_left = is_prime(m)
    while not prime_left and d <= _TRIAL_LIMIT and d * d <= m:
        if m % d == 0:
            while m % d == 0:
                out[d] = out.get(d, 0) + 1
                m //= d
            prime_left = is_prime(m)
        d += 1 if d == 2 else 2
    stack, found = ([m] if m > 1 else []), []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            found.append(v)
            continue
        f = _pollard_rho(v)
        stack.append(f)
        stack.append(v // f)
    # stable, so the factors above _SORTED_LIMIT keep the order rho found
    found.sort(key=lambda q: min(q, _SORTED_LIMIT + 1))
    for q in found:
        out[q] = out.get(q, 0) + 1
    return out
