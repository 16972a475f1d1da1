"""Roots of t^q - t - y over GF(p^n), constructed rather than searched.

The polynomial t^q - t - y has a root in E = GF(p^n) exactly when y has
trace zero onto GF(q), and then its root set is a full coset
x + GF(q).  The general root is R(y, z) for any trace-one witness z;
the specialized constructors below pick z cheaply in the situations
where a closed form is available:

* extension degree coprime to p: z = 1/m, a prime-field scalar;
* p exactly divides the degree: z built from a root of
  t^p - t^{p-1} + 1;
* any prime r with ord_r(p) handy: z from a primitive r-th root of
  unity with nonzero trace (a root of a big cyclotomic factor);
* p = 2 mod 3 with even degree: z from a cube root of unity, giving
  coefficients that only need floor(i/2) and i mod 2;
* characteristic 2: precomputed reference witnesses keyed by the
  2-part of the degree.

A constructor is only its preconditions and its witness: it hands over
the paper's zeta, which ``hilbert90._trace_one`` embeds into E and
divides by its trace to give z.  z depends on the field, not on y, so
it is built once per field context together with its multipliers for
R(., z) (``hilbert90._multipliers``).  Each later call costs a trace
check and the y-dependent half of R(y, z) alone, two cached Frobenius
applications and one fused product per doubling join, and the root is
re-verified.  A constructor whose preconditions fail raises
NotApplicable, and the dispatcher tries the next one.  An exhaustive
search is kept as an independent oracle at small sizes.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import add, mul

from ._record import Record
from .bigpoly import TABLE_ROWS, classify, factor_cyclotomic, ord_mod
from .errors import (
    BadInput,
    BadOrder,
    FieldTooLarge,
    NoRoot,
    NotApplicable,
    UnsupportedTwoPart,
    WrongCongruence,
    WrongNpCase,
)
from .fields import (
    FieldCtx,
    FieldElem,
    _artin_schreier_rows,
    discrete_log,
    frobenius,
    make_ctx,
    subfield_elements,
    subfield_embed,
    trace,
)
from .hilbert90 import TraceOneWitness, _certified, _multipliers, _trace_one, find_trace_one, r_form
from .intfactor import p_part
from .periodicity import partial_sum_period, partial_trace_terms
from .polys import PrimePoly, _count_vectors

#: Discrete logs of the reference partial sums x_1, x_2, ... to base z,
#: for the two-parts with reference data (None marks x_i = 0).
KNOWN_EXPONENTS: dict[int, list] = {
    4: [None, 1, 13, 6, 0, 12, 7, 8],
    8: [None, 1, 100, 189, 29, 60, 154, 177],
    16: [None, 1, 64409, 48754, 27742, 48469, 1146, 22404,
         64313, 47682, 63219, 45929, 55680, 46875, 7495, 32204],
}

BRUTE_FORCE_LIMIT = 2**24


class ArtinSchreierInstance(Record):
    """The polynomial t^q - t - y over the field of ctx; y is coerced
    into the field."""

    __slots__ = _fields = ("ctx", "y")

    def __init__(self, ctx: FieldCtx, y: FieldElem):
        self.ctx, self.y = ctx, ctx.elem(y)

    def polynomial_str(self) -> str:
        return f"t^{self.ctx.q}-t-({self.y})"


class RootSet(Record):
    """The coset base_root + GF(q) of roots, materialized on demand;
    the cached list ``_roots`` takes part in neither equality nor repr."""

    _fields = ("ctx", "base_root", "q", "method", "verified", "notes")
    __slots__ = _fields + ("_roots",)

    def __init__(self, ctx: FieldCtx, base_root: FieldElem, q: int, method: str,
                 verified: bool, notes: dict | None = None, _roots: list | None = None):
        self.ctx, self.base_root, self.q, self.method = ctx, base_root, q, method
        self.verified, self._roots = verified, _roots
        self.notes = {} if notes is None else notes

    def roots(self) -> list[FieldElem]:
        if self._roots is None:
            shifts = subfield_elements(self.ctx, self.ctx.f)
            self._roots = sorted(
                (self.base_root + u for u in shifts), key=lambda e: e.coeffs
            )
        return self._roots

    def __contains__(self, elem: FieldElem) -> bool:
        diff = self.ctx.elem(elem) - self.base_root
        return frobenius(diff, 1) == diff  # difference of roots sits in GF(q)


class IrreducibilityReport(Record):
    """What can be said when no root exists in the field; status is
    "irreducible" or "undetermined"."""

    __slots__ = _fields = ("ctx", "y", "status", "conclusion")

    def __init__(self, ctx: FieldCtx, y: FieldElem, status: str, conclusion: str):
        self.ctx, self.y, self.status, self.conclusion = ctx, y, status, conclusion


def has_root(inst: ArtinSchreierInstance) -> bool:
    """Trace criterion: a root exists iff trace of y onto GF(q) is 0."""
    return trace(inst.y, inst.ctx.f).is_zero()


def brute_force_roots(inst: ArtinSchreierInstance, limit: int = BRUTE_FORCE_LIMIT) -> list[FieldElem]:
    """Exhaustive search of the field for roots of t^q - t - y.

    Independent of the constructive machinery: it uses only the
    Frobenius matrix and integer arithmetic mod p.  L = F_q - I is
    F_p-linear, so with the field written as A + B, every x exactly one
    a + b, x is a root iff L(b) = y - L(a): L(b) is tabled and looked up
    for each a, as in baby-step giant-step.  For n >= 2, a holds the
    first n - n//2 coordinates and b the rest; for n = 1, x = a*s + b
    with b < s.  Returns roots sorted by coefficient tuple; sizes above
    ``limit`` are refused, and so is a root set (a coset of GF(q)) of
    more than 2^20 elements, as soon as its first root is found.
    """
    ctx = inst.ctx
    if ctx.order > limit:
        raise FieldTooLarge(
            f"brute force over {ctx.order} elements exceeds the limit {limit}"
        )
    p, n = ctx.p, ctx.n
    rows = _artin_schreier_rows(ctx, ctx.f)
    if n == 1:
        s = isqrt(p - 1) + 1
        side_a, side_b = [(a,) for a in range(0, p, s)], [(b,) for b in range(s)]
    else:
        k = n - n // 2
        side_a = [v + (0,) * (n - k) for v in _count_vectors(p, k)]
        side_b = [(0,) * k + v for v in _count_vectors(p, n - k)]
    table: dict[tuple, list] = {}
    for b in side_b:
        table.setdefault(tuple([sum(map(mul, row, b)) % p for row in rows]), []).append(b)
    y = inst.y.coeffs
    roots = []
    # a and each bucket ascend and a decides the leading coordinates, so
    # the roots come out sorted
    for a in side_a:
        want = tuple([(y_r - sum(map(mul, row, a))) % p for y_r, row in zip(y, rows)])
        for b in table.get(want, ()):
            x = tuple(map(add, a, b))
            if x[0] < p:  # only n = 1 can pass p: a*s + b >= p
                if ctx.q > 2**20:
                    raise FieldTooLarge(
                        f"{inst.polynomial_str()} has {ctx.q} roots, too many to list"
                    )
                roots.append(FieldElem(ctx, x))
    return roots


#: The witness builder of each root constructor, by method name.
_WITNESSES: dict = {}


def _constructor(method: str):
    """Make ``witness(ctx, ...) -> (zeta, notes)`` the root constructor
    ``name(inst, ...)`` of the same name and docstring.

    ``witness`` raises a NotApplicable error when the field fails its
    preconditions and otherwise returns zeta, which ``_trace_one`` scales
    to the witness z, and the notes to report with it.  Both depend on
    the field alone, so ``_witness`` builds them, with z's multipliers,
    once per context; each call then only checks the trace criterion and
    evaluates R(y, z).
    """
    def wrap(witness):
        _WITNESSES[method] = witness

        def root(inst: ArtinSchreierInstance, *args, **kwargs) -> RootSet:
            got = _witness(inst.ctx, method, *args, **kwargs)
            if isinstance(got, NotApplicable):
                raise got.with_traceback(None)
            _require_root(inst)
            return _root_set(inst, method, *got)

        root.__name__ = root.__qualname__ = witness.__name__
        root.__doc__ = witness.__doc__
        return root
    return wrap


def _witness(ctx: FieldCtx, method: str, *args, **kwargs):
    """The (z, notes, cs) of a constructor for ctx, kept in
    ``ctx._cache["witness"]`` under the method and the further arguments
    (r for prime_r); z is the constructor's zeta after ``_trace_one`` and
    cs its ``_multipliers`` for sigma.
    When the preconditions fail, the NotApplicable error the build raised
    is kept and returned in its place, so they are evaluated once."""
    built = ctx._cache.setdefault("witness", {})
    key = (method, *args, *kwargs.values())
    got = built.get(key)
    if got is None:
        try:
            zeta, notes = _WITNESSES[method](ctx, *args, **kwargs)
        except NotApplicable as exc:
            got = built[key] = exc.with_traceback(None)
        else:
            z = _trace_one(zeta, ctx)
            got = built[key] = (z, notes, _multipliers(z))
    return got


def _require_root(inst: ArtinSchreierInstance) -> None:
    """Raise NoRoot when y fails the trace criterion."""
    if not has_root(inst):
        raise NoRoot(
            "y has nonzero trace onto the designated subfield; "
            f"{inst.polynomial_str()} has no root in {inst.ctx.describe()}"
        )


def _root_set(inst, method, z, notes, cs) -> RootSet:
    """The roots based at R(y, z), with a copy of ``notes``, for y and z
    whose traces are checked and z's multipliers cs; the root is verified
    by sigma(x) - x = y."""
    return RootSet(inst.ctx, _certified(inst.y, z, 1, cs).x, inst.ctx.q, method, True,
                   dict(notes))


@_constructor("general")
def _default_general(ctx: FieldCtx):
    """The general constructor with the deterministic witness."""
    return _general_witness(find_trace_one(ctx))


def _general_witness(witness: TraceOneWitness):
    return witness.z, {"witness_e": witness.e, "witness_provenance": witness.provenance}


def root_general(inst: ArtinSchreierInstance, witness: TraceOneWitness | None = None) -> RootSet:
    """Root via R(y, z) for an arbitrary trace-one witness."""
    if witness is None:
        return _default_general(inst)
    _require_root(inst)
    z, notes = _general_witness(witness)
    return RootSet(inst.ctx, r_form(inst.y, z).x, inst.ctx.q, "general", True, notes)


@_constructor("coprime")
def root_coprime(ctx: FieldCtx):
    """Extension degree coprime to p: z = 1/m with m = n/f, so the root
    is sum_i (i/m) y^{q^i} with prime-field coefficients."""
    if ctx.m % ctx.p == 0:
        raise WrongNpCase(
            f"extension degree {ctx.m} is divisible by p={ctx.p}; "
            "the scalar-witness form needs them coprime"
        )
    z = ctx.elem(pow(ctx.m % ctx.p, -1, ctx.p))
    return z, {"z": str(z)}


def find_zeta(p: int) -> FieldElem:
    """The canonical degree-p element with trace 1: the residue class of
    t in GF(p^p) presented mod t^p - t^{p-1} + 1.

    That modulus is irreducible over F_p, its root has trace 1 (read off
    the subleading coefficient), and the root lies in GF(p^p) proper.
    """
    coeffs = (1,) + (0,) * (p - 2) + (-1, 1)
    ctx = make_ctx(p, p, modulus=PrimePoly(p, coeffs))
    zeta = ctx.gen()
    if trace(zeta, 1) != 1:
        raise RuntimeError(f"the root of {ctx.modulus} does not have trace 1")
    return zeta


@_constructor("np_p")
def root_np_p(ctx: FieldCtx):
    """p exactly divides n (and q = p): zeta is the canonical trace-one
    element of GF(p^p), whose trace in E is n/p, so z = (n/p)^{-1} zeta."""
    if ctx.f != 1:
        raise WrongNpCase("this constructor works over the prime subfield (f = 1)")
    if p_part(ctx.n, ctx.p) != ctx.p:
        raise WrongNpCase(
            f"p-part of {ctx.n} is {p_part(ctx.n, ctx.p)}, need exactly {ctx.p}"
        )
    return find_zeta(ctx.p), {"zeta_degree": ctx.p}


@_constructor("prime_r")
def root_via_prime_r(ctx: FieldCtx, r: int):
    """Root built from a primitive r-th root of unity, r prime.

    Let e = ord_r(p).  Requires e | n and p coprime to n/e.  A root zeta
    of a big irreducible factor of the r-th cyclotomic polynomial has
    degree e and nonzero trace tau, and z = (n tau / e)^{-1} zeta is a
    trace-one witness whose partial sums, like zeta's in GF(p^e), repeat
    with period e*p.
    """
    p, n = ctx.p, ctx.n
    if ctx.f != 1:
        raise BadOrder("this constructor works over the prime subfield (f = 1)")
    e = ord_mod(r, p)
    if n % e != 0 or (n // e) % p == 0:
        raise BadOrder(
            f"ord_{r}({p}) = {e} must divide n = {n} with quotient coprime to {p}"
        )
    big = [g for g in factor_cyclotomic(r, p) if classify(g).is_big]
    if not big:
        raise RuntimeError(f"cyclotomic {r} has no big factor over F_{p}")
    g = big[0]
    sub = make_ctx(p, e, modulus=g)
    zeta = sub.gen()
    if zeta**r != 1 or zeta == 1:
        raise RuntimeError(f"the root of {g} is not a primitive {r}-th root of unity")
    tau_elem = trace(zeta, 1)
    tau = tau_elem.coeffs[0]
    if tau == 0 or any(tau_elem.coeffs[1:]):
        raise RuntimeError(f"the root of {g} has trace {tau_elem}, not a nonzero scalar")
    if e % p_part(n, p) != 0:
        raise RuntimeError(f"the p-part of n = {n} does not divide the witness degree {e}")
    if partial_sum_period(zeta) != e * p:
        raise RuntimeError(f"the partial sums of the witness do not have period {e * p}")
    return zeta, {"r": r, "e": e, "tau": tau, "zeta_min_poly": str(g)}


@_constructor("p2mod3")
def root_p2mod3(ctx: FieldCtx):
    """p = 2 mod 3, n even, p coprime to n/2: coefficients from a cube
    root of unity.

    x = (n/2)^{-1} sum_i (floor(i/2) - r_i w) y^{p^i} with r_i = i mod 2
    and w the least primitive cube root of unity by coefficient tuple.
    As p = 2 mod 3, w lies outside F_p and sigma(w) = w^2 = -1 - w, so
    zeta = w has trace -(n/2) in E, and with s = (n/2)^{-1} the partial
    sums of z = -s w are exactly the coefficients s (floor(i/2) - r_i w):
    x is R(y, z), in the sign the source material states.
    """
    p, n = ctx.p, ctx.n
    if ctx.f != 1:
        raise WrongCongruence("this constructor works over the prime subfield (f = 1)")
    if p % 3 != 2:
        raise WrongCongruence(f"needs p = 2 mod 3, got p = {p}")
    if n % 2 != 0:
        raise WrongCongruence(f"needs even degree, got n = {n}")
    if (n // 2) % p == 0:
        raise WrongCongruence(f"needs n/2 = {n // 2} coprime to p = {p}")
    omega = subfield_embed(make_ctx(p, 2, modulus=PrimePoly(p, (1, 1, 1))).gen(), ctx)
    return omega, {"sign_variant": "statement", "omega": str(omega)}


@lru_cache(maxsize=None)
def _table_ctx(n_2: int) -> FieldCtx:
    if n_2 not in TABLE_ROWS:
        raise BadInput(f"no built-in table row of degree {n_2}; the rows are "
                       f"{', '.join(map(str, TABLE_ROWS))}")
    return make_ctx(2, n_2, modulus=TABLE_ROWS[n_2][1])


@lru_cache(maxsize=None)
def table_exponent_sequence(n_2: int) -> tuple:
    """Discrete logs (to base z) of the partial sums x_1 .. x_{2*n_2-1}
    of the reference witness z for this two-part; index 0 is None.

    Where reference values exist they are checked against the computed
    logs, so any drift in the table data or the log machinery trips
    immediately.  An n_2 with no table row raises BadInput.
    """
    z = _table_ctx(n_2).gen()
    terms = partial_trace_terms(z, 2 * n_2)
    out = []
    for x in terms:
        out.append(None if x.is_zero() else discrete_log(z, x))
    known = KNOWN_EXPONENTS.get(n_2)
    if known is not None and list(out[: len(known)]) != known:
        raise RuntimeError(f"reference exponents for two-part {n_2} do not match")
    return tuple(out)


@lru_cache(maxsize=None)
def _check_reference_exponents(n_2: int) -> None:
    """Raise RuntimeError unless z^k = x_i for each reference exponent k
    of this two-part, and x_i = 0 where the entry is None: one powering
    per entry, no discrete log."""
    z = _table_ctx(n_2).gen()
    known = KNOWN_EXPONENTS[n_2]
    for k, x in zip(known, partial_trace_terms(z, len(known))):
        if not (x.is_zero() if k is None else z**k == x):
            raise RuntimeError(f"reference exponents for two-part {n_2} do not match")


@_constructor("table")
def root_char2_table(ctx: FieldCtx):
    """Characteristic 2 over the prime subfield: reference witnesses.

    The 2-part of n selects a precomputed zeta = z (a big primitive root
    with trace 1); embedded into E it keeps trace 1 because n divided by
    its 2-part is odd.  For the two-parts in KNOWN_EXPONENTS, the reference
    partial sums are checked once per process by raising z to each
    exponent, before z is used.
    """
    if ctx.p != 2 or ctx.f != 1:
        raise UnsupportedTwoPart("the reference-table path needs p = 2 and q = 2")
    n_2 = p_part(ctx.n, 2)
    if n_2 == 1:
        return ctx.one(), {"z": "1", "n_2": 1}  # the coprime witness 1/n, n odd
    if n_2 not in TABLE_ROWS:
        raise UnsupportedTwoPart(
            f"no reference witness for two-part {n_2}; available: "
            f"{sorted(TABLE_ROWS)}"
        )
    if n_2 in KNOWN_EXPONENTS:
        _check_reference_exponents(n_2)
    return _table_ctx(n_2).gen(), {"n_2": n_2, "z_min_poly": str(TABLE_ROWS[n_2][1])}


def factor_artin_schreier(inst: ArtinSchreierInstance):
    """Full dichotomy for t^q - t - y over E.

    With a root x the polynomial splits as the product of t - (x + u)
    over u in GF(q) and a RootSet is returned.  With no root and q = p
    the polynomial is irreducible.  With no root and q > p nothing
    follows (t^4 + t + 1 over F_4 has no root yet splits into two
    quadratics), so the report says so rather than overclaiming.

    Constructor preference: coprime degree, then the characteristic-2
    reference table, then the p-part-p form, then the general witness.
    A constructor whose preconditions fail raises NotApplicable and the
    next one is tried.  The cube-root form is not tried: wherever its
    preconditions hold, the coprime form (p odd) or the table (p = 2,
    two-part 2) applies first.
    """
    if not has_root(inst):
        if inst.ctx.q == inst.ctx.p:
            return IrreducibilityReport(inst.ctx, inst.y, "irreducible", "irreducible")
        return IrreducibilityReport(inst.ctx, inst.y, "undetermined",
                                    "no root; irreducibility undetermined")
    for method in ("coprime", "table", "np_p", "general"):
        got = _witness(inst.ctx, method)
        if not isinstance(got, NotApplicable):
            return _root_set(inst, method, *got)
