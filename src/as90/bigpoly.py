"""Big polynomials, cyclotomic factors, and primitive-polynomial search.

A nonzero polynomial is "big" when its subleading coefficient (the one
right under the leading term) is nonzero; constants count as big.  For
an irreducible polynomial this is exactly the condition that its roots
have nonzero trace, which is what makes big factors of cyclotomic
polynomials the raw material for trace-one witnesses built from roots
of unity.  Tensor products (roots multiply pairwise) preserve bigness,
which is how big primitive polynomials of composite degree are
certified.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from ._record import Record
from .errors import (BadInput, EqualPrimes, FactorizationTooHard, NotFound, NotPrime,
                     OrderTooLarge, ZeroPolynomial)
from .intfactor import factorint, least_divisor
from .polys import (
    PrimePoly,
    _count_vectors,
    _poly,
    _power_sums,
    _reducer,
    _split_by,
    _trimmed,
    is_irreducible,
    is_prime,
)

#: Largest cyclotomic degree r - 1 that ``cyclotomic_prime`` builds.  The
#: polynomial is stored densely.  Splitting it by Gauss periods took at
#: most 0.53 s for the primes r in 650 .. 750 over F_2, F_3, F_5, F_7 and
#: F_65521 (r = 677 over F_65521, two factors of degree 338), and 4.2 s at
#: r = 3889 over F_65521 (486 factors of degree 8), on a 2-vCPU host with
#: CPython 3.11.
CYCLOTOMIC_DEGREE_LIMIT = 2**12
#: Largest degree ``tensor_product`` builds.  Recovering the product
#: from its power sums takes about N^2/2 products of residues, about
#: 10 ms at degree 256.
TENSOR_DEGREE_LIMIT = 2**8

#: Reference rows: two-part of the degree -> (symbol for z, minimal
#: polynomial of z over F_2).  Each z is a big primitive root whose
#: partial-trace sequence has period twice the degree.
#:
#: The degree-16 row is often printed as t^16+t^15+t^8+t+1, but that
#: polynomial divides the 257th cyclotomic polynomial, so its root has
#: order 257 and cannot reproduce the reference exponent data (x_2 =
#: z + z^2 has order 21845 there, not a power of z at all).  Exactly
#: one big primitive degree-16 polynomial is consistent with all
#: fifteen reference exponents: t^16+t^15+t^4+t+1, used here.
TABLE_ROWS: dict[int, tuple[str, PrimePoly]] = {
    2: ("ω", PrimePoly.parse("t^2+t+1", 2)),
    4: ("α", PrimePoly.parse("t^4+t^3+1", 2)),
    8: ("β", PrimePoly.parse("t^8+t^7+t^2+t+1", 2)),
    16: ("γ", PrimePoly.parse("t^16+t^15+t^4+t+1", 2)),
    32: ("δ", PrimePoly.parse("t^32+t^31+t^3+t+1", 2)),
}


class BigClass(Record):
    """Classification of a nonzero polynomial by its top coefficients."""

    __slots__ = _fields = ("degree", "leading", "subleading", "is_big")

    def __init__(self, degree: int, leading: int, subleading: int | None, is_big: bool):
        self.degree, self.leading, self.subleading, self.is_big = (
            degree, leading, subleading, is_big)

    @property
    def value(self) -> str:
        return "big" if self.is_big else "small"


def classify(f: PrimePoly) -> BigClass:
    """big = nonzero subleading coefficient (constants are big)."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is neither big nor small")
    d = f.degree
    if d == 0:
        return BigClass(degree=0, leading=f[0], subleading=None, is_big=True)
    sub = f[d - 1]
    return BigClass(degree=d, leading=f[d], subleading=sub, is_big=sub != 0)


def ord_mod(r: int, p: int) -> int:
    """Multiplicative order of p modulo the prime r."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if r == p:
        raise EqualPrimes("p has no order modulo itself")
    return least_divisor(r - 1, factorint(r - 1), lambda d: pow(p, d, r) == 1)


def cyclotomic_prime(r: int, p: int) -> PrimePoly:
    """The r-th cyclotomic polynomial over F_p for prime r: all-ones of
    degree r-1.  Degrees above CYCLOTOMIC_DEGREE_LIMIT are refused."""
    if not is_prime(r):
        raise NotPrime(f"{r} is not prime")
    if r - 1 > CYCLOTOMIC_DEGREE_LIMIT:
        raise OrderTooLarge(
            f"cyclotomic index {r} has degree {r - 1}, above {CYCLOTOMIC_DEGREE_LIMIT}"
        )
    return PrimePoly(p, (1,) * r)


def cyclotomic(m: int, p: int) -> PrimePoly:
    """The m-th cyclotomic polynomial reduced mod p, from the Moebius
    product Phi_m = prod_{d | m} (t^(m/d) - 1)^mu(d) with one exact
    division.  Cross-check constructor; the prime case has the direct
    all-ones form.  Indices above CYCLOTOMIC_DEGREE_LIMIT + 1 are refused."""
    if m < 1:
        raise BadInput("cyclotomic index must be positive")
    if m - 1 > CYCLOTOMIC_DEGREE_LIMIT:
        raise OrderTooLarge(
            f"cyclotomic index {m} needs t^{m} - 1, above degree {CYCLOTOMIC_DEGREE_LIMIT}"
        )
    num = den = PrimePoly.one(p)
    # mu(d) is nonzero only on the squarefree d, the products of distinct primes of m
    divisors = [(1, 1)]
    for ell in factorint(m):
        divisors += [(d * ell, -mu) for d, mu in divisors]
    for d, mu in divisors:
        k = m // d
        factor = PrimePoly._of(p, (-1,) + (0,) * (k - 1) + (1,))
        if mu == 1:
            num = num * factor
        else:
            den = den * factor
    quo, rem = divmod(num, den)
    if not rem.is_zero():
        raise RuntimeError(f"t^{m} - 1 is not divisible by the lower cyclotomics over F_{p}")
    return quo


def factor_cyclotomic(r: int, p: int) -> list[PrimePoly]:
    """Irreducible factors of the r-th cyclotomic polynomial over F_p:
    (r-1)/e monic factors, all of degree e = ord_r(p), sorted by
    coefficient tuple.

    They are split by Gauss periods, with no random draw.  Phi_r divides
    t^r - 1, so mod Phi_r the trace of t^c onto F_p is the period
    T_c = sum_{i<e} t^(c p^i mod r), which needs no Frobenius step; it
    takes one value in F_p on the roots of each factor (T_1 is nonzero
    on a factor exactly when that factor is big).  For c = 1, 2, ..., one
    per coset of the powers of p in (Z/r)^*, each piece g of degree above
    e on which T_c is not constant is split by ``polys._split_by``: over
    F_2 by gcd(g, T_c), otherwise by the first proper
    gcd(g, (T_c + s)^((p-1)/2) - 1), s = 0, 1, ...  The T_c span the
    elements of F_p[t]/Phi_r that the Frobenius fixes, the idempotent of
    each factor among them, so some c tells any two factors apart.
    """
    e = ord_mod(r, p)
    phi = cyclotomic_prime(r, p)
    if e == r - 1:
        return [phi]
    whole = _reducer(phi)
    pieces, done, seen = [whole], [], set()
    for c in range(1, r):
        if not pieces:
            break
        if c in seen:
            continue
        coset = {c * pow(p, i, r) % r for i in range(e)}
        seen |= coset
        cs = [0] * r
        for k in coset:
            cs[k] = 1
        period = whole.lift(_poly(p, _trimmed(cs)))
        # each piece, by its reducer, with T_c mod a multiple of it (Phi_r,
        # or the piece it was split from) and the first shift s to try: every
        # shift below the one that split its parent leaves it whole
        left, stack = [], [(red, period, 0) for red in pieces]
        while stack:
            red, u, first = stack.pop()
            if red.n == e:
                done.append(red.modulus())
                continue
            u = red.reduce(u)
            if red.poly(u).degree <= 0:  # every factor of the piece has the same T_c
                left.append(red)
                continue
            for s in range(first, p):  # over F_2 u itself splits the piece
                halves = _split_by(red, red.add(u, red.lift(PrimePoly._of(p, (s,)))), 1)
                if halves:
                    break
            stack += [(half, u, s + 1) for half in halves]
        pieces = left
    if pieces or len(done) != (r - 1) // e:
        raise RuntimeError(f"cyclotomic {r} split into {len(done)} factors over F_{p}, "
                           f"not {(r - 1) // e}")
    return sorted(done, key=lambda q: q.coeffs)


def tensor_product(a: PrimePoly, b: PrimePoly) -> PrimePoly:
    """The polynomial whose roots are the pairwise products of the roots
    of a and b, counted with multiplicity.

    Computed as lead(a)^deg(b) * lead(b)^deg(a) times the monic product
    read off its power sums: the k-th power sum of the products is
    s_k(a) s_k(b), and Newton's identities go from coefficients to power
    sums (``polys._power_sums``, which field traces share) and back
    (Bostan, Flajolet, Salvy & Schost, "Fast computation of special
    resultants", 2006).  Degrees multiply; big times big stays big.  A
    product above TENSOR_DEGREE_LIMIT raises OrderTooLarge.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroPolynomial("tensor products need nonzero polynomials")
    if a.p != b.p:
        raise BadInput("mixed characteristics")
    p = a.p
    m, n = a.degree, b.degree
    if m * n > TENSOR_DEGREE_LIMIT:
        raise OrderTooLarge(f"tensor product degree {m * n} is above {TENSOR_DEGREE_LIMIT}")
    scale = pow(a.leading(), n, p) * pow(b.leading(), m, p) % p
    if m == 0 or n == 0:
        return PrimePoly._of(p, (scale,))
    big_n = m * n
    # recovering the coefficients divides by 1 .. N, so work mod
    # p^(1 + v_p(N!)) (Legendre's formula): each division by k loses only
    # the p-part of k, and every coefficient stays right mod p
    v, pk = 0, p
    while pk <= big_n:
        v += big_n // pk
        pk *= p
    mod = p ** (v + 1)
    sums = [x * y % mod for x, y in zip(_power_sums(a.monic(), big_n, mod),
                                        _power_sums(b.monic(), big_n, mod))]
    # q_k, the coefficient of t^(N-k): k q_k = -sum_{i<k} q_i S_(k-i)
    top = [1]
    for k in range(1, big_n + 1):
        x = -sum(map(mul, top, sums[k:0:-1])) % mod
        g = gcd(k, mod)
        top.append(x // g * pow(k // g, -1, mod) % mod)
    return PrimePoly._of(p, top[::-1]) * scale


def _order_of_t_is(f: PrimePoly, target: int, factors: dict[int, int],
                   divides: bool = False) -> bool:
    """Does t have multiplicative order exactly ``target`` mod f?  With
    ``divides`` the caller knows that t^target = 1 already (f irreducible
    of degree e with f(0) != 0 and target = p^e - 1, by Lagrange), and
    only the maximal proper divisors are tried."""
    red, one = _reducer(f), PrimePoly._of(f.p, (1,))
    t = red.lift(PrimePoly._of(f.p, (0, 1)))
    if not divides and red.poly(red.pow(t, target)) != one:
        return False
    return all(red.poly(red.pow(t, target // ell)) != one for ell in factors)


def find_big_primitive(e: int, p: int = 2, budget: int = 1 << 16) -> PrimePoly:
    """Smallest (lexicographically, coefficients compared low degree
    first) monic big irreducible of degree e whose root generates the
    multiplicative group of GF(p^e).

    The t^{e-1} coefficient is forced to 1 up front (bigness needs it
    nonzero, and 1 is the smallest choice over F_2), as is a nonzero
    constant term.  Raises NotFound once ``budget`` candidates have been
    examined.
    """
    if e < 1:
        raise BadInput("degree must be positive")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e > 64:  # p^e - 1 >= 2^e - 1, past the ceiling, refused before p^e is built
        raise FactorizationTooHard(f"{p}^{e} - 1 exceeds the factorization ceiling 2^64")
    group = p**e - 1
    factors = factorint(group)  # may raise FactorizationTooHard
    seen = 0
    if e == 1:
        for c0 in range(1, p):
            seen += 1
            if seen > budget:
                break
            f = PrimePoly._of(p, (c0, 1))
            if _order_of_t_is(f, group, factors):
                return f
        raise NotFound(f"no big primitive of degree 1 over F_{p} within budget")
    c0_range = (1,) if p == 2 else tuple(range(1, p))
    subleads = (1,) if p == 2 else tuple(range(1, p))
    for c0 in c0_range:
        for mid in _count_vectors(p, e - 2):
            for sub in subleads:
                seen += 1
                if seen > budget:
                    raise NotFound(
                        f"budget of {budget} candidates exhausted for degree {e} over F_{p}"
                    )
                f = PrimePoly._of(p, (c0,) + mid + (sub, 1))
                if not is_irreducible(f):
                    continue
                if _order_of_t_is(f, group, factors, divides=True):
                    return f
    raise NotFound(f"no big primitive of degree {e} over F_{p}")


class TableCheck(Record):
    """Per-check outcome of validating one reference-table row."""

    __slots__ = _fields = ("n_2", "candidate", "checks", "passed")

    def __init__(self, n_2: int, candidate: PrimePoly, checks: dict[str, bool], passed: bool):
        self.n_2, self.candidate, self.checks, self.passed = n_2, candidate, checks, passed

    def to_dict(self) -> dict:
        return {
            "n_2": self.n_2,
            "candidate": str(self.candidate),
            "checks": dict(self.checks),
            "pass": self.passed,
        }


def verify_table_entry(n_2: int, candidate: PrimePoly | None = None) -> TableCheck:
    """Run the six checks a reference-table row must satisfy.

    degree e = n_2; irreducible; big; root of order 2^e - 1; root trace
    1 over F_2; partial-trace sequence of the root has period exactly
    2e.  All checks run in the quotient ring F_2[t]/(candidate), so a
    failing candidate still yields a full report instead of an error.
    Defaults to the built-in row for n_2; n_2 below 1, or with no
    candidate an n_2 that has no built-in row, raises BadInput.

    Squaring is additive in the quotient ring even for a reducible
    candidate, so the partial sums x_i of t satisfy x_{i+d} - x_i =
    (x_d)^(2^i): d is a period exactly when x_d = 0.  The periods are
    closed under differences, so the period is 2e exactly when x_{2e} = 0
    and x_d != 0 for every proper divisor d of 2e.
    """
    if n_2 < 1:
        raise BadInput(f"table rows need a positive degree, got {n_2}")
    if candidate is None:
        if n_2 not in TABLE_ROWS:
            raise BadInput(f"no built-in table row of degree {n_2}; the rows are "
                           f"{', '.join(map(str, TABLE_ROWS))}")
        candidate = TABLE_ROWS[n_2][1]
    if candidate.p != 2:
        raise BadInput("table rows live over F_2")
    checks: dict[str, bool] = {}
    checks["degree"] = candidate.degree == n_2
    checks["irreducible"] = is_irreducible(candidate)
    checks["big"] = classify(candidate).is_big if not candidate.is_zero() else False
    group = 2**n_2 - 1
    if checks["degree"] and candidate[0] != 0:
        checks["order"] = _order_of_t_is(candidate, group, factorint(group))
    else:
        checks["order"] = False
    if checks["degree"]:
        # partial sums x_0 .. x_{2e} of the root, residues held as the
        # bits of one int; the trace of t is x_e, the sum of its first e
        # conjugates
        red, period = _reducer(candidate), 2 * n_2
        w = red.lift(PrimePoly._of(2, (0, 1)))
        terms = [0]
        for _ in range(period):
            terms.append(terms[-1] ^ w)
            w = red.square(w)
        checks["trace"] = terms[n_2] == 1
        checks["period"] = terms[period] == 0 and least_divisor(
            period, factorint(period), lambda d: terms[d] == 0) == period
    else:
        checks["trace"] = False
        checks["period"] = False
    return TableCheck(
        n_2=n_2,
        candidate=candidate,
        checks=checks,
        passed=all(checks.values()),
    )


def regenerate_table(degrees=(2, 4, 8, 16, 32), budget: int = 1 << 16):
    """Search each degree afresh and return verified (n_2, symbol, poly)
    rows.  The search is deterministic, so the output is reproducible;
    it need not coincide with the built-in rows, but every row passes
    verify_table_entry."""
    rows = []
    for n_2 in degrees:
        symbol = TABLE_ROWS[n_2][0] if n_2 in TABLE_ROWS else "z"
        found = find_big_primitive(n_2, 2, budget)
        report = verify_table_entry(n_2, found)
        if not report.passed:
            raise RuntimeError(f"searched degree-{n_2} row {found} fails {report.checks}")
        rows.append((n_2, symbol, found))
    return rows
