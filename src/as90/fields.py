"""Finite fields GF(p^n) with a designated subfield GF(p^f).

A :class:`FieldCtx` fixes the prime p, the degree n, the modulus used
for the power-basis representation, and a subfield step f dividing n.
The step determines q = p^f and the distinguished automorphism
sigma: x -> x^q, whose fixed field is the "base" F = GF(q) that traces
and the Hilbert-90 formulas refer to.  Contexts are immutable values;
elements of distinct contexts never mix silently.

Elements are tuples of n coefficients in range(p).  The arithmetic on
them runs on the packed F_p vectors of ``polys._packer``, the engine
behind PrimePoly as well: with slots wide enough for n products of
residues, one big-int product of two packed elements is the packed
product polynomial, so the inner loops run in C.  The top n - 1
coefficients are folded back by the linear map with columns t^(n+k) mod g.

Every F_p-linear table here is a ``polys._Map``, which owns the packed
columns and their slot bound.  Frobenius powers x -> x^(p^j) are maps;
each context caches those it uses, its only n x n tables, so after the
first call one costs a matrix-vector product.  Traces are built from them
and from the power sums of the modulus's roots.  These maps, the fold
columns and the conjugates X^(p^j) mod g of a subfield's modulus g each
come from one builder in ``polys``.  The doubling walk ``_walk`` behind
orbit sums, traces onto subfields, powers and ``hilbert90``'s R(y, z)
joins on coefficient tuples, so a walk builds one FieldElem, its result.

A subfield GF(p^d) embeds by a root of its modulus g, read off an
idempotent of ctx[X]/g; that ring packs on the same packer, d blocks of
field elements, and no polynomial over the field is ever divided.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
import operator
from random import Random

from ._record import Record
from .errors import (
    BadInput,
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
from .intfactor import factorint, least_divisor
from .polys import (
    PrimePoly,
    _Map,
    _count_vectors,
    _fold_columns,
    _frobenius_columns,
    _packer,
    _power_sums,
    _t_conjugates,
    default_modulus,
    is_irreducible,
    is_prime,
)

SCALE_LIMIT = 2**64
_BSGS_PRIME_LIMIT = 2**32
#: ``make_ctx`` keeps the CTX_CACHE_LIMIT most recently used contexts,
#: and the embedding cache the newest EMBED_CACHE_LIMIT images (each key
#: keeps two contexts alive).
CTX_CACHE_LIMIT = 512
EMBED_CACHE_LIMIT = 128
#: How many bases per context ``discrete_log`` keeps a Pohlig-Hellman plan for.
ORDER_CACHE_LIMIT = 16


class FieldCtx(Record):
    """Immutable description of GF(p^n) over the subfield GF(p^f).

    Equality and hash go by (p, n, modulus, f); ``_cache`` holds the
    lazily built maps and takes part in neither.
    """

    __slots__ = ("p", "n", "modulus", "f", "_cache")
    _fields = ("p", "n", "modulus", "f")

    def __init__(self, p: int, n: int, modulus: PrimePoly, f: int = 1,
                 _cache: dict | None = None):
        values = (p, n, modulus, f, {} if _cache is None else _cache)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldCtx is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldCtx is immutable")

    def __hash__(self):
        return hash(self._values())

    @property
    def q(self) -> int:
        """Order of the designated subfield."""
        return self.p**self.f

    @property
    def m(self) -> int:
        """Degree n/f of the extension over GF(q); order of sigma."""
        return self.n // self.f

    @property
    def order(self) -> int:
        return self.p**self.n

    def describe(self) -> str:
        base = f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"
        if self.f > 1:
            base += f"/GF({self.p}^{self.f})"
        return f"{base} mod {self.modulus}"

    def __str__(self) -> str:
        return self.describe()

    # -- element constructors ---------------------------------------------

    def elem(self, value) -> "FieldElem":
        """Coerce an int scalar, coefficient sequence, PrimePoly, or
        polynomial text into an element of this field."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise CtxMismatch("element belongs to a different field context")
            return value
        if isinstance(value, int):
            return FieldElem(self, (value % self.p,) + (0,) * (self.n - 1))
        if isinstance(value, str):
            # term by term, so t^(10^9) costs a few dozen products
            _, terms = PrimePoly.parse_terms(value, self.p)
            t, g = PrimePoly.x(self.p), self.modulus
            value = sum((c * t.pow_mod(k, g) for k, c in terms.items()), PrimePoly.zero(self.p))
        if isinstance(value, PrimePoly):
            if value.p != self.p:
                raise CtxMismatch("polynomial has the wrong characteristic")
            value = value.coeffs
        coeffs = [c % self.p for c in value]
        if len(coeffs) > self.n:
            reduced = PrimePoly(self.p, coeffs) % self.modulus
            coeffs = list(reduced.coeffs)
        coeffs += [0] * (self.n - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    def zero(self) -> "FieldElem":
        return self.elem(0)

    def one(self) -> "FieldElem":
        return self.elem(1)

    def gen(self) -> "FieldElem":
        """The residue class of t."""
        return self.elem(PrimePoly.x(self.p))

    def random_element(self, rng: Random) -> "FieldElem":
        return FieldElem(self, tuple(rng.randrange(self.p) for _ in range(self.n)))

    def elements_lex(self):
        """All field elements, smallest coefficient vector first
        (vectors compared low degree first)."""
        for v in _count_vectors(self.p, self.n):
            yield FieldElem(self, v)


@lru_cache(maxsize=CTX_CACHE_LIMIT)
def _make_ctx_cached(p, n, modulus, f):
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadInput("extension degree must be at least 1")
    if n >= SCALE_LIMIT.bit_length() or p**n > SCALE_LIMIT:  # p^n >= 2^n: no huge p^n built
        raise FieldTooLarge(f"{p}^{n} exceeds the supported scale 2^64")
    if f < 1 or n % f != 0:
        raise BadSubfieldStep(f"subfield step {f} does not divide {n}")
    if modulus is None:
        modulus = default_modulus(p, n)
    else:
        if modulus.p != p:
            raise CtxMismatch("modulus has the wrong characteristic")
        if modulus.degree != n:
            raise ReducibleModulus(
                f"modulus degree {modulus.degree} does not match n={n}"
            )
        modulus = modulus.monic()
        if not is_irreducible(modulus):
            raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
    return FieldCtx(p, n, modulus, f)


def make_ctx(p: int, n: int, modulus=None, f: int = 1) -> FieldCtx:
    """Build a validated field context.

    Without an explicit modulus the lexicographically smallest monic
    irreducible of degree n is used (coefficients compared low degree
    first), so equal parameters always name the same field.  Equal
    parameters also return the same context object while it is among the
    CTX_CACHE_LIMIT most recently used, letting the cached Frobenius
    matrices be shared.
    """
    if isinstance(modulus, str):
        modulus = PrimePoly.parse(modulus, p, max_degree=n)
    elif isinstance(modulus, (list, tuple)):
        modulus = PrimePoly(p, modulus)
    return _make_ctx_cached(p, n, modulus, f)


# -- packed F_p kernels -------------------------------------------------------


class _Kernel:
    """Packed arithmetic of one field context, kept in ``ctx._cache``.

    A slot holds the n products of residues of a field product plus one
    residue, so ``mul_add`` adds into the packed product before the fold.
    ``red`` maps c_n ... c_(2n-2) to sum_k c_(n+k) t^(n+k) mod g, k < n - 1
    (``polys._fold_columns``), so a product reduces in one ``apply_add``.
    """

    __slots__ = ("p", "n", "pack", "unpack", "red")

    def __init__(self, ctx: FieldCtx):
        self.p, self.n = ctx.p, ctx.n
        _, self.pack, self.unpack = _packer(ctx.p, ctx.n + 1)
        self.red = _Map(ctx.p, ctx.n, _fold_columns(ctx.modulus))

    def mul(self, a, b) -> tuple:
        n = self.n
        prod = self.unpack(self.pack(a) * self.pack(b), 2 * n - 1)
        return self.red.apply_add(prod[n:], prod[:n])

    def mul_add(self, a, b, c) -> tuple:
        """a * b + c, with c added into the low slots of the packed product."""
        n = self.n
        prod = self.unpack(self.pack(a) * self.pack(b) + self.pack(c), 2 * n - 1)
        return self.red.apply_add(prod[n:], prod[:n])

    def scale(self, a, c: int) -> tuple:
        """c * a for an int c: one packed product by c mod p."""
        return tuple(self.unpack(c % self.p * self.pack(a), self.n))

    def add(self, a, b) -> tuple:
        return tuple(self.unpack(self.pack(a) + self.pack(b), self.n))

    def sub(self, a, b) -> tuple:
        return tuple(self.unpack(self.pack(a) + (self.p - 1) * self.pack(b), self.n))

    def neg(self, a) -> tuple:
        return self.scale(a, self.p - 1)


def _kernel(ctx: FieldCtx) -> _Kernel:
    kern = ctx._cache.get("kernel")
    if kern is None:
        kern = ctx._cache["kernel"] = _Kernel(ctx)
    return kern


class FieldElem:
    """An element of a :class:`FieldCtx`, stored as a coefficient tuple.

    ``coeffs`` holds exactly n ints, each already reduced to range(p),
    low degree first.  The packed kernels rely on that invariant: a
    coefficient outside range(p) could overflow its slot.  Every
    constructor in this module keeps it, and callers that build a
    FieldElem directly must too (``FieldCtx.elem`` reduces any input).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise CtxMismatch(
                    f"cannot mix elements of {self.ctx} and {other.ctx}"
                )
            return other
        if isinstance(other, int):
            return self.ctx.elem(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.ctx, _kernel(self.ctx).add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.ctx, _kernel(self.ctx).neg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.ctx, _kernel(self.ctx).sub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FieldElem(self.ctx, _kernel(self.ctx).scale(self.coeffs, other))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElem(self.ctx, _kernel(self.ctx).mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if not any(self.coeffs[1:]):  # a scalar of F_p
            return self.ctx.elem(pow(self.coeffs[0], -1, self.ctx.p))
        from .polys import xgcd

        g, s, _ = xgcd(self.to_poly(), self.ctx.modulus)
        if g.degree != 0:
            raise RuntimeError(f"{self} has no inverse modulo {self.ctx.modulus}")
        inv = s * pow(g.coeffs[0], -1, self.ctx.p)
        return self.ctx.elem(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.ctx.elem(other) / self

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inv() ** (-e)
        if not e:
            return self.ctx.one()
        mul = _kernel(self.ctx).mul
        return FieldElem(self.ctx, _walk(e, 0, self.coeffs, lambda a, b, _: mul(a, b)))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs[0] == other % self.ctx.p and not any(self.coeffs[1:])
        return (
            isinstance(other, FieldElem)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def to_poly(self) -> PrimePoly:
        return PrimePoly._of(self.ctx.p, self.coeffs)

    def __str__(self) -> str:
        return str(self.to_poly())

    def __repr__(self) -> str:
        return f"<{self} in {self.ctx.describe()}>"


# -- F_p linear algebra ----------------------------------------------------


def _row_reduce(rows, ncols: int, p: int) -> list[int]:
    """Gauss-Jordan over F_p on the first ncols columns of rows, in
    place.  Returns the pivot columns; pivot row i (rows[i]) has a 1 in
    column pivots[i] and every other row a 0 there."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                fac = rows[i][c]
                rows[i] = [(x - fac * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def nullspace(mat, p: int) -> list[tuple]:
    """Basis of the kernel of mat over F_p (row-reduced, deterministic)."""
    rows = [list(r) for r in mat]
    ncols = len(rows[0]) if rows else 0
    pivots = _row_reduce(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc] % p
        basis.append(tuple(v))
    return basis


def solve_in_span(columns, target, p: int):
    """Coordinates expressing target in the span of the given columns,
    or None if target is outside.  Vectors are coefficient tuples."""
    if not columns:
        return [] if all(c % p == 0 for c in target) else None
    aug = [list(row) for row in zip(*columns, target)]
    ncols = len(columns)
    pivots = _row_reduce(aug, ncols, p)
    if any(row[ncols] % p for row in aug[len(pivots):]):
        return None
    coords = [0] * ncols
    for pr, pc in enumerate(pivots):
        coords[pc] = aug[pr][ncols]
    return coords


# -- Frobenius, trace, subfields --------------------------------------------


def _frob_cols(ctx: FieldCtx, j: int) -> _Map:
    """The map x -> x^(p^j) in the power basis, cached per context.  A
    power that is the sum of two cached powers is their composition; any
    other is ``polys._frobenius_columns`` of t^(p^j), computed in the
    field, so no chain of lower powers is needed."""
    j %= ctx.n
    cache = ctx._cache.setdefault("frob", {})
    if j not in cache:
        h = next((h for h in cache if (j - h) % ctx.n in cache), None)
        if h is not None:
            cache[j] = cache[h] @ cache[(j - h) % ctx.n]
        else:
            x = (ctx.gen() ** ctx.p**j).coeffs
            cache[j] = _frobenius_columns(ctx.p, x, ctx.n, _kernel(ctx).mul)
    return cache[j]


def frobenius(a: FieldElem, k: int = 1) -> FieldElem:
    """sigma^k(a) = a^(q^k), where sigma is the designated generator
    x -> x^q of the Galois group over GF(q).  k may be any integer."""
    ctx = a.ctx
    return FieldElem(ctx, _frob_cols(ctx, ctx.f * k).apply(a.coeffs))


def _subfield_step(ctx: FieldCtx, d: int | None) -> int:
    """d, or the designated step f when d is None, once it is checked to
    be the degree of a subfield of ctx."""
    d = ctx.f if d is None else d
    if d < 1 or ctx.n % d != 0:
        raise BadSubfieldStep(f"no subfield of degree {d} inside degree {ctx.n}")
    return d


def _walk(length: int, step: int, block, join):
    """The block of ``length`` >= 1 from ``block``, the block of length 1,
    by doubling along the bits of ``length``, low first (von zur Gathen &
    Shoup, 1992).  ``join(first, second, shift)`` is ``first`` followed by
    ``second``, shift = step * len(first); it runs O(log length) times.
    With a product as join the block of length e is the e-th power."""
    out = None
    while length:
        if length & 1:
            out = block if out is None else join(block, out, step)
        length >>= 1
        if length:
            block, step = join(block, block, step), 2 * step
    return out


def _orbit_sum(v: FieldElem, length: int, step: int) -> FieldElem:
    """S_L(v) = sum_{i<L} F^i(v), F = x -> x^(p^step), L = ``length``.  A
    block is its sum; a join, F^shift of the second plus the first, is
    one ``apply_add`` of the cached map F^shift."""

    def join(first, second, shift):
        return _frob_cols(v.ctx, shift).apply_add(second, first)

    return FieldElem(v.ctx, _walk(length, step, v.coeffs, join)) if length else v.ctx.zero()


def trace(a: FieldElem, down_to: int | None = None) -> FieldElem:
    """Trace of a from GF(p^n) onto the degree-``down_to`` subfield
    (default: the designated subfield GF(q)).  The result is returned as
    an element of the big field and always lands in that subfield.

    Onto F_p it is sum_k a_k s_k, s_k = Tr(t^k) the k-th power sum of the
    modulus's roots, kept in ``ctx._cache["trace"][1]``.  Onto GF(p^d) it
    is the orbit sum S_{n/d}(a) = sum_{i<n/d} F^i(a), F = x -> x^(p^d),
    taken by ``_walk`` on the cached Frobenius powers F^(2^j).
    """
    ctx = a.ctx
    d = _subfield_step(ctx, down_to)
    if d == 1:
        cache = ctx._cache.setdefault("trace", {})
        if 1 not in cache:
            cache[1] = _power_sums(ctx.modulus, ctx.n - 1, ctx.p)
        return ctx.elem(sum(map(operator.mul, a.coeffs, cache[1])))
    return _orbit_sum(a, ctx.n // d, d)


def degree_over_subfield(a: FieldElem, d: int | None = None) -> int:
    """Degree of a over the degree-d subfield: the size of the orbit of
    a under x -> x^(p^d).

    The size divides n/d, and it is the least e with x^(p^(de)) fixing
    a.  Starting from e = n/d, each prime l of n/d is divided out of e
    while x^(p^(de/l)) still fixes a, so the cost is one cached
    Frobenius power per prime factor rather than a walk along the orbit.
    """
    ctx = a.ctx
    d = _subfield_step(ctx, d)
    e = ctx.n // d
    return least_divisor(e, factorint(e),
                         lambda k: _frob_cols(ctx, d * k).apply(a.coeffs) == a.coeffs)


def _artin_schreier_rows(ctx: FieldCtx, d: int) -> list[list[int]]:
    """Rows of the matrix of x -> x^(p^d) - x in the power basis."""
    rows = _frob_cols(ctx, d).rows()
    return [[(x - (r == c)) % ctx.p for c, x in enumerate(row)] for r, row in enumerate(rows)]


def subfield_elements(ctx: FieldCtx, d: int | None = None) -> list[FieldElem]:
    """All elements of the degree-d subfield of ctx, sorted by
    coefficient tuple.  The subfield is the kernel of x^(p^d) - x."""
    d = _subfield_step(ctx, d)
    if ctx.p**d > 2**20:
        raise FieldTooLarge(f"refusing to enumerate {ctx.p}^{d} subfield elements")
    p = ctx.p
    basis = _Map(p, ctx.n, nullspace(_artin_schreier_rows(ctx, d), p))
    if len(basis.cols) != d:
        raise RuntimeError(f"the fixed space of x^({p}^{d}) has dimension {len(basis.cols)}")
    out = sorted({FieldElem(ctx, basis.apply(combo)) for combo in _count_vectors(p, d)},
                 key=lambda e: e.coeffs)
    if len(out) != p**d:
        raise RuntimeError(f"degree-{d} subfield has {len(out)} elements, not {p}^{d}")
    return out


# -- multiplicative structure ------------------------------------------------


def element_order(a: FieldElem) -> int:
    """Multiplicative order of a nonzero a."""
    if a.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    group = a.ctx.order - 1
    m = least_divisor(group, factorint(group), lambda d: a**d == 1)
    if a**m != 1:
        raise RuntimeError(f"computed order {m} does not annihilate {a}")
    return m


def _log_plan(base: FieldElem, m: int):
    """(m, [(ell, k, table, giant)]) for base of order m: for each ell^k
    dividing m the baby steps {gamma^j: j < w}, w = ceil(sqrt(ell)), of
    gamma = base^(m/ell) and the giant step gamma^-w (None for ell above
    _BSGS_PRIME_LIMIT).  The plan is kept in the context, for the newest
    ORDER_CACHE_LIMIT bases."""
    steps = []
    for ell, k in sorted(factorint(m).items()):
        table = giant = None
        if ell <= _BSGS_PRIME_LIMIT:
            gamma, width, table = base ** (m // ell), isqrt(ell - 1) + 1, {}
            cur = base.ctx.one()
            for j in range(width):
                table[cur.coeffs] = j
                cur = cur * gamma
            giant = (gamma**width).inv()
        steps.append((ell, k, table, giant))
    cache = base.ctx._cache.setdefault("order", {})
    cache[base.coeffs] = (m, steps)
    if len(cache) > ORDER_CACHE_LIMIT:
        del cache[next(iter(cache))]
    return m, steps


def _bsgs(table: dict | None, giant: FieldElem, h: FieldElem, ell: int) -> int:
    """Log of h to gamma, of prime order ell, by the steps of ``_log_plan``."""
    if table is None:
        raise OrderTooLarge(f"prime factor {ell} too large for baby-step giant-step")
    width = len(table)  # gamma has order ell >= w, so the w baby steps differ
    for i in range(width + 1):
        if h.coeffs in table:
            return (i * width + table[h.coeffs]) % ell
        h = h * giant
    raise NotInSubgroup("no discrete log in the cyclic group generated by base")


def discrete_log(base: FieldElem, target) -> int:
    """Exact discrete log: the least x >= 0 with base^x = target.

    Pohlig-Hellman over the factorization of the order of ``base``, with
    baby-step giant-step inside each prime subgroup; target is coerced
    into the field of base.  Raises NotInSubgroup when target is outside
    the cyclic group generated by base; never returns a wrong answer.
    Membership is checked before the plan of a new base is built.
    """
    target = base.ctx.elem(target)
    if base.is_zero() or target.is_zero():
        raise ZeroElement("discrete logs live in the multiplicative group")
    plan = base.ctx._cache.get("order", {}).get(base.coeffs)
    m = plan[0] if plan else element_order(base)
    if target**m != 1:
        raise NotInSubgroup("target is not a power of base")
    m, steps = plan or _log_plan(base, m)
    x, mod = 0, 1
    for ell, k, table, giant in steps:
        x_pe = 0
        for j in range(k):
            h = (target * (base ** (-x_pe))) ** (m // ell ** (j + 1))
            x_pe += _bsgs(table, giant, h, ell) * ell**j
        # combine x (mod mod) with x_pe (mod ell^k)
        pe = ell**k
        x += mod * ((x_pe - x) * pow(mod, -1, pe) % pe)
        mod *= pe
    if base**x != target:
        raise NotInSubgroup("pohlig-hellman reconstruction failed membership")
    return x


# -- subfield embeddings ------------------------------------------------------


#: Embedding images by (source, target) context, oldest first; past
#: EMBED_CACHE_LIMIT entries the oldest is dropped.
_EMBED_CACHE: dict[tuple[FieldCtx, FieldCtx], FieldElem] = {}


def _at(g: PrimePoly, x: FieldElem) -> FieldElem:
    """g(x) by Horner's rule, for g over F_p."""
    value = x.ctx.zero()
    for c in reversed(g.coeffs):
        value = value * x + c
    return value


def _mod_g(g: PrimePoly, ctx: FieldCtx):
    """(pack, unpack, mul) for A = ctx[X]/g, g over F_p of degree d.

    ``pack`` puts the d coefficients (in ctx) of an element on
    ``_packer(p, n d)`` as X-blocks of 2n - 1 t-slots, so a product is
    one big-int product, at most n d products of residues per slot.
    ``mul`` reads its slots mod p, folds block d + k into the low blocks by
    the F_p coefficients of X^(d+k) mod g (``polys._fold_columns``; at most
    (d - 1)(p - 1)^2 + p - 1 per slot), reads them mod p again and folds
    each block's t-degree by the kernel's ``red``; no slot exceeds the width.
    """
    p, n, d = ctx.p, ctx.n, g.degree
    red, b, gap = _kernel(ctx).red, 2 * n - 1, (0,) * (n - 1)
    _, pk, upk = _packer(p, n * d)
    rows = list(zip(*_fold_columns(g))) or [()] * d  # row j: coefficient j of X^(d+k) mod g

    def pack(cs):
        return pk([x for c in cs for x in (*c, *gap)])

    def mul(x, y):
        c = upk(x * y, (2 * d - 1) * b)
        high = [pk(c[i:i + b]) for i in range(d * b, (2 * d - 1) * b, b)]
        out = []
        for j, row in enumerate(rows):
            cj = upk(pk(c[j * b:(j + 1) * b]) + sum(map(operator.mul, row, high)), b)
            out += red.apply_add(cj[n:], cj[:n])
            out += gap
        return pk(out)

    def unpack(x):
        c = upk(x, d * b)
        return [tuple(c[i:i + n]) for i in range(0, d * b, b)]

    return pack, unpack, mul


def _one_root(g: PrimePoly, ctx: FieldCtx) -> FieldElem:
    """Some root in ctx of g, a monic irreducible over F_p of degree d | n.

    g splits over ctx into distinct linear factors, so A = ctx[X]/g is
    ctx^d, one coordinate per root theta_i, and its products act
    coordinatewise (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 14).  For a in ctx the absolute trace of aX in A is
    sum_{k<n} phi^k(a) (X^(p^k) mod g), phi: x -> x^p, whose X-parts
    (``polys._t_conjugates``) have F_p coefficients and period d: its
    terms with k = j mod d sum to phi^j(S_{n/d}(a)), the orbit sum under
    phi^d.  So w = T(aX) + s, s in F_p, costs one walk and d - 1
    Frobenius steps, and has the coordinates Tr(a theta_i) + s in F_p.
    Then w (p = 2) or (u + u^2)/2 with u = w^((p-1)/2) is an idempotent,
    1 where w is a nonzero square.  Starting from e = 1, e is multiplied
    by it whenever the product is neither 0 nor e, which separates each
    pair of roots with probability at least 4/9.  Once e keeps one root
    theta it is g / ((X - theta) g'(theta)), so theta is
    e_(d-2)/e_(d-1) - g_(d-1), read off e's top two coefficients.  All
    products are taken mod the fixed g: no gcd and no division.
    """
    p, n, d = ctx.p, ctx.n, g.degree
    frob, conj_rows = _frob_cols(ctx, 1), list(zip(*_t_conjugates(g)))
    pack, unpack, mul = _mod_g(g, ctx)
    zero, half = (0,) * n, (p + 1) // 2
    e = pack([ctx.one().coeffs] + [zero] * (d - 1))
    rng = Random(0xE17)
    for _ in range(400 * d):
        *_, low, top = [zero, *unpack(e)]  # e_(d-2) is 0 when d = 1
        if any(top):
            theta = FieldElem(ctx, low) / FieldElem(ctx, top) - g.coeffs[d - 1]
            if _at(g, theta).is_zero():
                return theta
        conj_t = [_orbit_sum(ctx.random_element(rng), n // d, d).coeffs]
        for _ in range(d - 1):  # phi^j(T), the sum of phi^k(a) over k = j mod d
            conj_t.append(frob.apply(conj_t[-1]))
        w = list(map(_Map(p, n, conj_t).apply, conj_rows))
        w[0] = ((w[0][0] + rng.randrange(p)) % p, *w[0][1:])
        w = pack(w)
        if p != 2:
            u = _walk((p - 1) // 2, 0, w, lambda a, b, _: mul(a, b))
            w = pack(unpack(half * (u + mul(u, u))))  # below p^2 <= n d (p-1)^2, d > 1
        w = mul(e, w)
        if w and w != e:
            e = w
    raise RuntimeError("root splitting failed to converge")


def _embedding_image(src: FieldCtx, dst: FieldCtx) -> FieldElem:
    """Image in dst of the generator t of src, cached per context pair.

    For a different presentation this is the root of the source modulus
    g in dst that is smallest by coefficient tuple.  g is irreducible
    over F_p of degree d | n, so its roots are the d distinct conjugates
    phi^i(theta), i < d, of any one root theta; ``_one_root`` finds one
    from an idempotent of dst[X]/g and the smallest conjugate is kept,
    so the image does not depend on which root was found.
    """
    key = (src, dst)
    theta = _EMBED_CACHE.get(key)
    if theta is None:
        if src.n == dst.n and src.modulus == dst.modulus:
            theta = dst.gen()
        else:
            g = src.modulus
            frob = _frob_cols(dst, 1)
            orbit = [_one_root(g, dst).coeffs]
            for _ in range(g.degree - 1):
                orbit.append(frob.apply(orbit[-1]))
            if len(set(orbit)) != g.degree:
                raise RuntimeError(f"conjugates of a root of {g} are not distinct")
            theta = FieldElem(dst, min(orbit))
            if not _at(g, theta).is_zero():
                raise RuntimeError(f"embedding image is not a root of {g}")
        _EMBED_CACHE[key] = theta
        if len(_EMBED_CACHE) > EMBED_CACHE_LIMIT:
            del _EMBED_CACHE[next(iter(_EMBED_CACHE))]
    return theta


def subfield_embed(a: FieldElem, target: FieldCtx) -> FieldElem:
    """Canonical embedding GF(p^d) -> GF(p^n) for d | n.

    The generator of the source field maps to the lexicographically
    smallest root of the source modulus in the target (the generator
    itself when both use one modulus), fixed once per context pair, so
    the map is a consistent ring homomorphism across calls.  That root
    is found as one root, read off a primitive idempotent of
    target[X]/g built from traces, then the least of its d Frobenius
    conjugates, which are all the roots.
    """
    src = a.ctx
    if src == target:
        return a
    if src.p != target.p:
        raise NoEmbedding("different characteristics")
    if target.n % src.n != 0:
        raise NoEmbedding(f"degree {src.n} does not divide {target.n}")
    return _at(a.to_poly(), _embedding_image(src, target))


def subfield_section(a: FieldElem, sub: FieldCtx) -> FieldElem:
    """Inverse of subfield_embed: express a as an element of sub.

    Solves for coordinates of a over the embedded power basis of sub;
    raises NoEmbedding when a lies outside the image.
    """
    ctx = a.ctx
    if ctx == sub:
        return a
    if sub.p != ctx.p or ctx.n % sub.n != 0:
        raise NoEmbedding(f"no copy of {sub.describe()} inside {ctx.describe()}")
    theta = _embedding_image(sub, ctx)
    basis = [ctx.one()]
    for _ in range(sub.n - 1):
        basis.append(basis[-1] * theta)
    combo = solve_in_span([b.coeffs for b in basis], a.coeffs, ctx.p)
    if combo is None:
        raise NoEmbedding("element does not lie in the embedded subfield")
    return sub.elem(combo)
