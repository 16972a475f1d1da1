"""Dense polynomials over a prime field F_p.

Coefficients are stored low degree first as a tuple of ints in
``range(p)`` with no trailing zero.  Instances are immutable and
hashable, so they can key caches and serve as field moduli.  Two text
formats are supported:

* human form, highest degree first: ``t^4+t^3+1`` or ``2t^3+t+2``;
* coefficient form, low degree first: ``p:2;coeffs:1,0,0,1,1``.

Products and divisions run on packed coefficient vectors (Kronecker
substitution; von zur Gathen & Gerhard, Modern Computer Algebra, 8.4),
the one engine that the field kernels of ``fields`` use as well.
``_packer`` puts coefficient i in slot i of one Python int, each slot
w bytes wide, and w is chosen so that no slot can carry into the next:

* a product a b is one big-int product of the packed a and b.  A slot
  then sums at most min(len a, len b) products of residues, so it must
  hold min(len a, len b) (p-1)^2.
* a division a = q b + r, with dq = deg a - deg b and db = deg b, is long
  division on one packed remainder.  Step k reads slot k + db mod p,
  takes the quotient coefficient c from it and adds (p - c) b shifted by
  k slots, which clears that slot mod p.  A slot starts below p and takes
  at most min(dq, db) + 1 such terms, each at most (p-1)^2, so it must
  hold p - 1 + (min(dq, db) + 1) (p-1)^2.  The low db slots, reduced
  mod p, are then the remainder.

Packing and unpacking go through ``int.from_bytes`` and ``int.to_bytes``,
so the inner loops run in C.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from random import Random

from .errors import (
    BadInput,
    DivisionByZero,
    FactorizationTooHard,
    NotPrime,
    OrderTooLarge,
    ZeroPolynomial,
)

_TERM_RE = re.compile(r"^(\d*)\s*\*?\s*t(?:\^(\d+))?$")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprimes to all of the bases 2..37 (psi_12) and
# 2..41 (psi_13); Sorenson & Webster, Math. Comp. 2017.
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Deterministic primality test: Miller-Rabin to the bases 2..41,
    proven exact for every m below psi_13 = 3317044064679887385961981.
    Larger m are refused with FactorizationTooHard rather than answered.
    Below psi_12 the bases 2..37 already suffice, and base 41 is skipped."""
    if m >= _PSI_13:
        raise FactorizationTooHard(
            f"{m} is beyond {_PSI_13}, the bound below which "
            "the primality test is proven exact"
        )
    if m < 2:
        return False
    for sp in _SMALL_PRIMES:
        if m % sp == 0:
            return m == sp
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES if m >= _PSI_12 else _SMALL_PRIMES[:-1]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# -- packed coefficient vectors ---------------------------------------------

_ARRAY_CODE = {w: next(c for c in "HILQ" if array(c).itemsize == w) for w in (2, 4, 8)}
#: Slot widths of 1 to 8 bytes rounded up to the native array widths.
_NATIVE_WIDTH = (1, 1, 2, 4, 4, 8, 8, 8, 8)


@lru_cache(maxsize=1024)
def _packer(p: int, n: int):
    """Slot width and (pack, unpack) for F_p vectors whose slots each sum
    at most n products of residues.

    A vector c_0, c_1, ... packs into the int sum_i c_i 256^(w i), slot i
    holding c_i, and a slot of w bytes holds n (p-1)^2.  w is 1, 2, 4 or
    8 bytes (the native array widths), or the exact byte count above
    that.  ``pack`` takes a sequence of ints in range(256^w);
    ``unpack(x, k)`` returns the k slots of x < 256^(w k) reduced mod p,
    as bytes when w = 1 and a list otherwise.
    """
    w = ((n * (p - 1) ** 2).bit_length() + 7) // 8
    return _slots(p, _NATIVE_WIDTH[w] if w <= 8 else w)


@lru_cache(maxsize=256)
def _slots(p: int, w: int):
    """The (w, pack, unpack) of ``_packer``, shared by every n that needs
    w-byte slots.  Array items are native-endian, so a big-endian host
    packs by byte strings instead."""
    if w == 1:
        table = bytes(i % p for i in range(256))

        def pack(cs):
            return int.from_bytes(bytes(cs), "little")

        def unpack(x, k):
            return x.to_bytes(k, "little").translate(table)
    elif w <= 8 and sys.byteorder == "little":
        code = _ARRAY_CODE[w]

        def pack(cs):
            return int.from_bytes(array(code, cs).tobytes(), "little")

        def unpack(x, k):
            return [c % p for c in memoryview(x.to_bytes(k * w, "little")).cast(code)]
    else:
        def pack(cs):
            return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in cs]), "little")

        def unpack(x, k):
            raw = x.to_bytes(k * w, "little")
            return [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, k * w, w)]
    return w, pack, unpack


def _trimmed(cs) -> tuple:
    """The ints of cs without its trailing zeros."""
    k = len(cs)
    while k and not cs[k - 1]:
        k -= 1
    return tuple(cs[:k])


class PrimePoly:
    """A polynomial with coefficients in F_p."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self._fill(p, coeffs)

    @classmethod
    def _of(cls, p: int, coeffs) -> "PrimePoly":
        """PrimePoly(p, coeffs) for a p already known to be prime: the
        arithmetic builds its results this way, without the primality test."""
        self = object.__new__(cls)
        self._fill(p, coeffs)
        return self

    def _fill(self, p: int, coeffs) -> None:
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set_p(self, p)
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PrimePoly is immutable")

    # -- basic structure --------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimePoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PrimePoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "PrimePoly":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int, degree: int = 1) -> "PrimePoly":
        """The monomial t^degree."""
        return cls(p, (0,) * degree + (1,))

    @classmethod
    def parse(cls, text: str, p: int | None = None,
              max_degree: int | None = None) -> "PrimePoly":
        """Parse either text format; coefficient form carries its own p.
        A degree above ``max_degree`` raises OrderTooLarge before the
        coefficient list is built."""
        p, terms = cls.parse_terms(text, p)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        terms = {k: c % p for k, c in terms.items() if c % p}
        degree = max(terms, default=-1)
        if max_degree is not None and degree > max_degree:
            raise OrderTooLarge(f"polynomial degree {degree} is above {max_degree}")
        out = [0] * (degree + 1)
        for k, c in terms.items():
            out[k] = c
        return cls._of(p, out)

    @staticmethod
    def parse_terms(text: str, p: int | None = None) -> tuple[int, dict[int, int]]:
        """The prime and the {exponent: coefficient} terms of either text
        format, coefficients not yet reduced mod p.  No list as long as
        the degree is built, so t^(10^9) costs no more than t."""
        text = text.strip()
        if text.startswith("p:"):
            head, sep, body = text.partition(";coeffs:")
            try:
                pp = int(head[2:])
                coeffs = [int(c) for c in body.split(",")] if body.strip() else []
            except ValueError:
                pp = None
            if pp is None or not sep:
                raise BadInput(f"bad coefficient form: {text!r}")
            if p is not None and p != pp:
                raise BadInput(f"coefficient form says p={pp}, caller says p={p}")
            return pp, dict(enumerate(coeffs))
        if p is None:
            raise BadInput("human polynomial form needs an explicit p")
        text = text.replace(" ", "").replace("−", "-")
        if text in ("0", ""):
            return p, {}
        # normalize into signed terms
        text = text.replace("-", "+-")
        coeffs: dict[int, int] = {}
        for term in text.split("+"):
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            m = _TERM_RE.match(term)
            if m:
                c = int(m.group(1)) if m.group(1) else 1
                k = int(m.group(2)) if m.group(2) else 1
            elif term.isdigit():
                c, k = int(term), 0
            else:
                raise BadInput(f"cannot parse term {term!r}")
            coeffs[k] = coeffs.get(k, 0) + sign * c
        return p, coeffs

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                coef = "" if c == 1 else str(c)
                parts.append(f"{coef}t" if k == 1 else f"{coef}t^{k}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"PrimePoly({self.p}, {self})"

    def to_coeff_string(self) -> str:
        return f"p:{self.p};coeffs:{','.join(str(c) for c in self.coeffs)}"

    # -- ring arithmetic ---------------------------------------------------

    def _check(self, other: "PrimePoly"):
        if self.p != other.p:
            raise BadInput(f"mixed characteristics {self.p} and {other.p}")

    def __add__(self, other: "PrimePoly") -> "PrimePoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PrimePoly._of(self.p, out)

    def __neg__(self) -> "PrimePoly":
        return PrimePoly._of(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "PrimePoly") -> "PrimePoly":
        return self + (-other)

    def __mul__(self, other) -> "PrimePoly":
        if isinstance(other, int):
            return PrimePoly._of(self.p, [c * other for c in self.coeffs])
        self._check(other)
        a, b, p = self.coeffs, other.coeffs, self.p
        if not a or not b:
            return _poly(p, ())
        # a slot sums at most min(len a, len b) products; over a field the
        # leading coefficient of the product is nonzero, so nothing to trim
        _, pack, unpack = _packer(p, min(len(a), len(b)))
        return _poly(p, tuple(unpack(pack(a) * pack(b), len(a) + len(b) - 1)))

    __rmul__ = __mul__

    def __divmod__(self, other: "PrimePoly"):
        self._check(other)
        a, b, p = self.coeffs, other.coeffs, self.p
        if not b:
            raise DivisionByZero("polynomial division by zero")
        db, dq = len(b) - 1, len(a) - len(b)
        if dq < 0:
            return _poly(p, ()), self
        # packed long division (see the module docstring): a slot holds at
        # most p - 1 + (min(dq, db) + 1) (p-1)^2 <= (min(dq, db) + 2) (p-1)^2
        w, pack, unpack = _packer(p, min(dq, db) + 2)
        bits = 8 * w
        mask = (1 << bits) - 1
        inv_lead = pow(b[-1], -1, p)
        rem, div = pack(a), pack(b)
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = (rem >> (k + db) * bits & mask) * inv_lead % p
            if c:
                quo[k] = c
                rem += (p - c) * div << k * bits
        low = unpack(rem & (1 << db * bits) - 1, db)
        return _poly(p, tuple(quo)), _poly(p, _trimmed(low))

    def __floordiv__(self, other: "PrimePoly") -> "PrimePoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "PrimePoly") -> "PrimePoly":
        return divmod(self, other)[1]

    def monic(self) -> "PrimePoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return self * inv

    def eval(self, v: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * v + c) % self.p
        return acc

    def derivative(self) -> "PrimePoly":
        return PrimePoly._of(self.p, [k * c for k, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, e: int, mod: "PrimePoly") -> "PrimePoly":
        """self**e reduced mod ``mod``; e may be arbitrarily large."""
        if e < 0:
            raise BadInput("negative exponent")
        result = PrimePoly._of(self.p, (1,)) % mod
        base = self % mod
        while e:
            if e & 1:
                result = result * base % mod
            base = base * base % mod
            e >>= 1
        return result


_set_p, _set_coeffs = PrimePoly.p.__set__, PrimePoly.coeffs.__set__


def _poly(p: int, coeffs: tuple) -> PrimePoly:
    """PrimePoly._of(p, coeffs) for a tuple of ints already in range(p)
    and without trailing zeros, taken as it is."""
    f = object.__new__(PrimePoly)
    _set_p(f, p)
    _set_coeffs(f, coeffs)
    return f


def gcd(a: PrimePoly, b: PrimePoly) -> PrimePoly:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def xgcd(a: PrimePoly, b: PrimePoly):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic."""
    p = a.p
    r0, r1 = a, b
    s0, s1 = PrimePoly._of(p, (1,)), PrimePoly._of(p, ())
    t0, t1 = PrimePoly._of(p, ()), PrimePoly._of(p, (1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = pow(r0.coeffs[-1], -1, p)
    return r0 * inv, s0 * inv, t0 * inv


def is_irreducible(f: PrimePoly) -> bool:
    """Ben-Or's irreducibility test over F_p.

    A reducible f of degree n has an irreducible factor of degree
    d <= n/2, which divides t^(p^d) - t; so f is irreducible exactly when
    the first piece of its distinct-degree split is f itself, of degree n.
    """
    if f.degree <= 0:
        return False
    return next(distinct_degree_split(f.monic()))[1] == f.degree


#: The default moduli found so far, oldest first; past
#: DEFAULT_MODULUS_CACHE_LIMIT entries the oldest is dropped.
_DEFAULT_MODULUS_CACHE: dict[tuple[int, int], PrimePoly] = {}
DEFAULT_MODULUS_CACHE_LIMIT = 128


def default_modulus(p: int, n: int) -> PrimePoly:
    """Lexicographically smallest monic irreducible of degree n over F_p.

    Coefficient tuples (c_0, ..., c_{n-1}) are compared low degree
    first.  The constant term must be nonzero for n >= 2, so that block
    of candidates is skipped wholesale rather than enumerated.
    """
    key = (p, n)
    cached = _DEFAULT_MODULUS_CACHE.get(key)
    if cached is not None:
        return cached
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n == 1:
        found = PrimePoly.x(p)  # t itself: smallest monic linear
    else:
        found = None
        for c0 in range(1, p):
            for rest in _count_vectors(p, n - 1):
                f = PrimePoly._of(p, (c0,) + rest + (1,))
                if is_irreducible(f):
                    found = f
                    break
            if found is not None:
                break
        if found is None:  # not reachable: irreducibles exist in every degree
            raise RuntimeError(f"no irreducible of degree {n} over F_{p}")
    _DEFAULT_MODULUS_CACHE[key] = found
    if len(_DEFAULT_MODULUS_CACHE) > DEFAULT_MODULUS_CACHE_LIMIT:
        del _DEFAULT_MODULUS_CACHE[next(iter(_DEFAULT_MODULUS_CACHE))]
    return found


def _count_vectors(p: int, length: int):
    """Yield tuples in increasing lexicographic order, first entry most
    significant (so the last coordinate varies fastest)."""
    if length == 0:
        yield ()
        return
    v = [0] * length
    while True:
        yield tuple(v)
        i = length - 1
        while i >= 0 and v[i] == p - 1:
            v[i] = 0
            i -= 1
        if i < 0:
            return
        v[i] += 1


# -- factorization over F_p ---------------------------------------------


def squarefree_decomposition(f: PrimePoly) -> list[tuple[PrimePoly, int]]:
    """Write monic f as a product of squarefree parts with multiplicities.

    Returns [(g_i, m_i)] with f = prod g_i^{m_i}, the g_i squarefree and
    pairwise coprime.  Handles the characteristic-p collapse f = h(t^p).
    """
    p = f.p
    f = f.monic()
    out: list[tuple[PrimePoly, int]] = []
    if f.degree == 0:
        return out

    def p_th_root(g: PrimePoly) -> PrimePoly:
        # g has only exponents divisible by p; coefficients in F_p are
        # their own p-th roots
        return PrimePoly._of(p, g.coeffs[::p])

    def recurse(g: PrimePoly, mult: int):
        if g.degree <= 0:
            return
        d = g.derivative()
        if d.is_zero():
            recurse(p_th_root(g), mult * p)
            return
        w = gcd(g, d)
        v = g // w  # product of squarefree factors not killed by d/dt
        k = 1
        while v.degree > 0:
            h = gcd(v, w)
            piece = v // h
            if piece.degree > 0:
                out.append((piece, mult * k))
            v = h
            w = w // h
            k += 1
        if w.degree > 0:
            recurse(p_th_root(w), mult * p)

    recurse(f, 1)
    return out


def distinct_degree_split(f: PrimePoly):
    """Yield (product of the irreducible factors of degree d, d) for
    squarefree monic f, in increasing d, computing each piece only when
    it is asked for."""
    p = f.p
    x = PrimePoly._of(p, (0, 1))
    h = x % f
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if 2 * d > rest.degree:
            yield rest, rest.degree
            return
        h = h.pow_mod(p, rest)
        g = gcd(rest, h - x)
        if g.degree > 0:
            yield g, d
            rest = rest // g
            h = h % rest


def equal_degree_split(f: PrimePoly, d: int, rng: Random | None = None) -> list[PrimePoly]:
    """Split monic squarefree f, all of whose irreducible factors have
    degree d, into those factors (Cantor-Zassenhaus).

    The splitting elements come from a seeded generator, so the call is
    deterministic; the returned list is sorted by coefficient tuple.
    """
    p = f.p
    if rng is None:
        rng = Random(0xA590)
    if f.degree == d:
        return [f]
    pieces = [f]
    done: list[PrimePoly] = []
    while pieces:
        g = pieces.pop()
        if g.degree == d:
            done.append(g)
            continue
        u = PrimePoly._of(p, [rng.randrange(p) for _ in range(g.degree)])
        if u.degree < 1:
            continue
        if p == 2:
            # trace map into F_2: u + u^2 + ... + u^(2^(d-1))
            w = u % g
            acc = w
            for _ in range(d - 1):
                w = w * w % g
                acc = acc + w
            h = gcd(g, acc)
        else:
            w = u.pow_mod((p**d - 1) // 2, g)
            h = gcd(g, w - PrimePoly._of(p, (1,)))
        if 0 < h.degree < g.degree:
            pieces.append(h)
            pieces.append(g // h)
        else:
            pieces.append(g)
    return sorted(done, key=lambda q: q.coeffs)


def factor(f: PrimePoly) -> list[tuple[PrimePoly, int]]:
    """Full factorization into monic irreducibles over F_p.

    Returns (factor, multiplicity) pairs sorted by degree then
    coefficients; the product with multiplicities equals f up to its
    leading unit.  Pipeline: squarefree decomposition, then
    distinct-degree, then seeded equal-degree splitting.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    rng = Random(0xA590)
    out: list[tuple[PrimePoly, int]] = []
    for squarefree, mult in squarefree_decomposition(f):
        for bucket, d in distinct_degree_split(squarefree):
            for irr in equal_degree_split(bucket, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda pair: (pair[0].degree, pair[0].coeffs))
    return out
