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
  mod p, are then the remainder.  ``gcd`` passes only these remainders,
  as tuples, from one Euclid step to the next.
* a sum a + k b, k in range(p), is one packed sum.  A slot holds at most
  p - 1 + (p-1)^2, which fits any slot wide enough for one product.

Packing and unpacking go through ``int.from_bytes`` and ``int.to_bytes``,
so the inner loops run in C; over F_2 the residue of a slot is the parity
of its lowest byte, so slots wider than a byte unpack in C as well.

Over F_2 the slots are skipped: a polynomial is the bits of one int,
coefficient i in bit i, and subtraction is XOR, so a division step is
one shift and one XOR, with nothing to carry and no slot to reduce mod 2.
``gcd`` keeps its whole remainder sequence in such ints, with a
remainder-only loop, and converts only the inputs and the answer; ``//``,
``%`` and ``xgcd`` go through the same division.

Loops that multiply again and again modulo one polynomial f of degree n
(``pow_mod``, Ben-Or's Frobenius steps, the trace or norm in equal-degree
splitting, and in ``bigpoly`` the Gauss periods that split cyclotomic
polynomials, the order of t and the partial traces) keep their residues in
a reducer from ``_reducer(f)``, which has one interface for every p
(op. cit., 14.2 and 14.3):

* over F_2, ``_F2Reducer`` holds a residue as the bits of one int: a
  square is its binary numeral read in base 4, a product one Kronecker
  product on byte slots, a remainder the shift-and-XOR loop of ``gcd``.
* otherwise ``_Reducer`` holds coefficient sequences and reduces by
  Barrett division with a precomputed inverse of the reversed f (op. cit.,
  9.1), two packed products per reduction instead of one step per
  quotient coefficient.  A product of two residues sums at most n
  products of residues per slot, its top k <= n - 1 coefficients times
  the inverse at most k, and the low n slots of the product plus the
  quotient times -f at most p - 1 + (n-1) (p-1)^2; so one packer for n
  products serves them all, and the Newton steps that build the inverse
  too.

The Frobenius map h -> h^p mod f of a reducer (``frobenius``) is the
squaring over F_2.  Over odd p it is F_p-linear, and when one power costs
at least the n - 1 products that build its columns t^(p i) mod f, it is
one packed matrix-vector product whose slots each sum n products of
residues (von zur Gathen & Shoup, Computing Frobenius maps and factoring
polynomials, 1992); otherwise it is a power.  Ben-Or's test and the
distinct-degree split step with it, and equal-degree splitting takes the
norm w w^p ... w^(p^(d-1)) with it before one power of exponent (p-1)/2.
Each map is built by the call that uses it and dropped with it.  Every
packed F_p-linear table is a ``_Map``, the only code that applies or
composes packed columns.  The tables of a modulus that ``fields`` keeps
are built here, one routine each: the fold columns t^(n+k) mod f
(``_fold_columns``), the map with columns x^i of a Frobenius power
x = t^(p^j) mod f, the matrix above among them (``_frobenius_columns``),
and t^(p^j) mod f for j < n (``_t_conjugates``).
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache, reduce
from math import isqrt
from operator import mul
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
    that.  ``pack`` takes a sequence of residues (ints in range(p));
    ``unpack(x, k)`` returns the k slots of x < 256^(w k) reduced mod p,
    as bytes when w = 1 or p = 2 and a list otherwise.
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
    elif p == 2:
        # a residue is one byte, and the parity of a slot is that of its
        # lowest byte
        table = bytes(i % 2 for i in range(256))

        def pack(cs):
            raw = bytearray(len(cs) * w)
            raw[::w] = bytes(cs)
            return int.from_bytes(raw, "little")

        def unpack(x, k):
            return x.to_bytes(k * w, "little")[::w].translate(table)
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


class _Map:
    """The F_p-linear map v -> sum_c v_c col_c, its k columns of n residues
    packed on ``_packer(p, k + 1)``: a slot sums k products of residues and
    one residue, so the image of v plus a vector w is one packed sum.
    Vectors are sequences of residues; images are n-tuples."""

    __slots__ = ("p", "n", "cols", "pack", "unpack")

    def __init__(self, p: int, n: int, cols):
        _, self.pack, self.unpack = _packer(p, len(cols) + 1)
        self.p, self.n, self.cols = p, n, [self.pack(c) for c in cols]

    def apply(self, v) -> tuple:
        return tuple(self.unpack(sum(map(mul, v, self.cols)), self.n))

    def apply_add(self, v, w) -> tuple:
        """The image of v plus w, in one packed sum."""
        return tuple(self.unpack(sum(map(mul, v, self.cols)) + self.pack(w), self.n))

    def __matmul__(self, other: "_Map") -> "_Map":
        """self after other: column j is self applied to column j of other."""
        return _Map(self.p, self.n, [self.apply(other.unpack(c, other.n)) for c in other.cols])

    def rows(self) -> list[tuple]:
        """The n rows of the matrix, row r holding entry r of every column."""
        return list(zip(*(self.unpack(c, self.n) for c in self.cols)))


class _Reducer:
    """Arithmetic mod one fixed nonzero f of degree n >= 1 over F_p, on
    residues kept as coefficient sequences (tuples, lists or the bytes of
    ``_packer``), each of length at most n with entries in range(p).

    ``_F2Reducer`` has the same interface on residues held as the bits of
    one int, and ``_reducer(f)`` picks between the two: ``lift`` takes a
    PrimePoly to its residue, ``poly`` takes a residue back, ``mul``,
    ``square``, ``pow``, ``add`` and ``minus_t`` (h - t, for n >= 2) stay
    on residues, ``reduce`` takes a residue mod a multiple of f to one mod
    f, ``frobenius`` is the map h -> h^p, ``gcd`` is the monic gcd of f
    and a residue, ``coprime`` tests whether that gcd is 1 and ``is_one``
    whether a residue is 1, ``halves`` gives the reducers mod that gcd and
    its cofactor, ``modulus`` gives f back, and ``random`` draws a residue.

    A product of residues has degree at most 2n - 2.  Its quotient by f
    comes from ``inv``, the packed G = rev(f)^-1 mod t^(n-1), which Newton
    iteration builds in O(log n) packed products (Barrett division; von
    zur Gathen & Gerhard, Modern Computer Algebra, 9.1): for a product c
    of length n + k, rev(q) = rev(c)_top * G mod t^k, rev(c)_top being its
    top k coefficients read high degree first, and the remainder is the
    low n slots of c - q f.  A reduction is two packed products and no
    loop over coefficients.  G and the packed -f are built at the first
    product that needs reducing, so a loop whose products all stay below
    degree n never builds them.
    """

    __slots__ = ("p", "n", "f", "mod", "bits", "pack", "unpack", "inv", "neg_f")

    def __init__(self, f: "PrimePoly"):
        self.p, self.f, self.n, self.mod = f.p, f.coeffs, f.degree, f
        w, self.pack, self.unpack = _packer(f.p, f.degree)
        self.bits = 8 * w
        self.inv = None

    def lift(self, g: "PrimePoly"):
        """The residue of g mod f."""
        return (g if g.degree < self.n else g % self.mod).coeffs

    def poly(self, a) -> "PrimePoly":
        return _poly(self.p, _trimmed(a))

    def add(self, a, b):
        """a + b: one packed sum, each slot at most 2 (p-1) <= n (p-1)^2
        unless p = 2, whose slots are bytes."""
        return self.unpack(self.pack(a) + self.pack(b), max(len(a), len(b)))

    def minus_t(self, h):
        """The residue h - t, for n >= 2."""
        u = list(h) + [0] * (2 - len(h))
        u[1] = (u[1] - 1) % self.p
        return u

    def gcd(self, a) -> "PrimePoly":
        """The monic gcd of f and the residue a."""
        return gcd(self.mod, self.poly(a))

    def coprime(self, a) -> bool:
        return self.gcd(a).degree == 0

    def is_one(self, a) -> bool:
        return _trimmed(a) == (1,)

    def random(self, rng: Random) -> list:
        """A residue drawn uniformly by rng."""
        return [rng.randrange(self.p) for _ in range(self.n)]

    def _series_inverse(self, h, k: int) -> list:
        """The k coefficients of 1/h mod t^k, for h[0] != 0: Newton's
        step g <- g (2 - h g) doubles the precision.  With h g = 1 + t^l e
        mod t^(2l), it adds -t^l (g e mod t^l) to g."""
        p, pack, unpack, bits = self.p, self.pack, self.unpack, self.bits
        g = [pow(h[0], -1, p)]
        while len(g) < k:
            l = len(g)
            l2 = min(2 * l, k)
            e = unpack(pack(h[:l2]) * pack(g) >> l * bits & (1 << (l2 - l) * bits) - 1, l2 - l)
            g += [-c % p for c in unpack(pack(g[: l2 - l]) * pack(e) & (1 << (l2 - l) * bits) - 1,
                                          l2 - l)]
        return g

    def _reduce(self, c: int, length: int):
        """The residue of the packed product c of the given length: every
        slot of c holds at most n products of residues."""
        n, unpack = self.n, self.unpack
        cs = unpack(c, length)
        k = length - n
        if k <= 0:
            return cs
        pack, bits, inv = self.pack, self.bits, self.inv
        if inv is None:
            f, p = self.f, self.p
            inv = self.inv = pack(self._series_inverse(f[::-1], n - 1))
            self.neg_f = pack([-c % p for c in f[:n]])
        rq = unpack(pack(cs[:n - 1:-1]) * inv & (1 << k * bits) - 1, k)
        return unpack(pack(cs[:n]) + (pack(rq[::-1]) * self.neg_f & (1 << n * bits) - 1), n)

    def mul(self, a, b):
        """a b mod f."""
        if not a or not b:
            return ()
        return self._reduce(self.pack(a) * self.pack(b), len(a) + len(b) - 1)

    def square(self, a):
        """a^2 mod f."""
        return self._reduce(self.pack(a) ** 2, 2 * len(a) - 1) if a else ()

    def pow(self, a, e: int):
        """a^e mod f, left-to-right binary powering."""
        if e == 0:
            return (1,)
        if not a:
            return ()
        pack, square, base, la = self.pack, self.square, self.pack(a), len(a)
        r = a
        for bit in bin(e)[3:]:
            r = square(r)
            if bit == "1":
                r = self._reduce(pack(r) * base, len(r) + la - 1)
        return r

    def reduce(self, a):
        """The residue mod f of a residue mod a multiple of f, by Barrett
        reductions of 2n - 1 coefficients at a time from the top: each
        leaves n, and the next n - 1 coefficients below join them."""
        n = self.n
        if n == 1:
            return self.lift(_poly(self.p, _trimmed(a)))
        r, end = [], len(a)
        while end:
            start = max(0, end - (2 * n - 1 - len(r)))
            r = [*a[start:end], *r]
            end = start
            if len(r) > n:
                r = self._reduce(self.pack(r), len(r))
        return r

    def modulus(self) -> "PrimePoly":
        return self.mod

    def halves(self, a):
        """The reducers mod h = gcd(f, a) and mod f / h when h is a
        proper factor of f, else None."""
        h = self.gcd(a)
        return [_Reducer(h), _Reducer(self.mod // h)] if 0 < h.degree < self.n else None

    def frobenius(self):
        """The map h -> h^p mod f on residues: when ``_linear_frobenius``,
        ``apply`` of the ``_Map`` with columns t^(p i) mod f; otherwise
        ``pow(h, p)``."""
        p, n = self.p, self.n
        if not _linear_frobenius(p, n):
            return lambda h: self.pow(h, p)
        return _frobenius_columns(p, self.pow(self.lift(_poly(p, (0, 1))), p), n, self.mul).apply


def _linear_frobenius(p: int, n: int) -> bool:
    """Is the Frobenius map mod a polynomial of degree n over F_p, p odd,
    one matrix-vector product?  Yes when one power, about 1.5 log2 p
    products, costs at least the n - 1 products that build the matrix."""
    return p != 2 and 3 * p.bit_length() >= 2 * n


def _frobenius_columns(p: int, x, n: int, times) -> _Map:
    """The map with columns x^0 ... x^(n-1), each ``times`` the last and x:
    h -> h^(p^j) mod f when x = t^(p^j) mod f, deg f = n."""
    cols = [(1,)]
    for _ in range(n - 1):
        cols.append(times(cols[-1], x))
    return _Map(p, n, cols)


def _fold_columns(f: "PrimePoly") -> list[tuple]:
    """t^(n+k) mod f, k < n - 1, for monic f of degree n, as n-tuples: each
    is t times the last, its top coefficient folded back by t^n = -(f_0 +
    ... + f_(n-1) t^(n-1)) in one packed sum (as in ``PrimePoly._combine``)."""
    p, n, (_, pack, unpack) = f.p, f.degree, _packer(f.p, 1)
    cols = [tuple(-c % p for c in f.coeffs[:n])]  # t^n
    low = pack(cols[0])
    while len(cols) < n - 1:
        cols.append(tuple(unpack(pack((0, *cols[-1][:-1])) + cols[-1][-1] * low, n)))
    return cols[:n - 1]


def _t_conjugates(f: "PrimePoly") -> list[tuple]:
    """t^(p^j) mod f for j < n = deg f, as n-tuples: t and n - 1 steps of
    the Frobenius map of ``_reducer(f)``; the roots of f if irreducible."""
    red, n = _reducer(f), f.degree
    step, hs = red.frobenius(), [red.lift(_poly(f.p, (0, 1)))]
    for _ in range(n - 1):
        hs.append(step(hs[-1]))
    return [cs + (0,) * (n - len(cs)) for cs in (red.poly(h).coeffs for h in hs)]


def _trimmed(cs) -> tuple:
    """The ints of cs without its trailing zeros."""
    k = len(cs)
    while k and not cs[k - 1]:
        k -= 1
    return tuple(cs[:k])


#: coefficients 0 and 1 as the digits of a binary numeral, and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(cs) -> int:
    """The F_2 coefficients cs as one int, coefficient i in bit i."""
    return int(bytes(cs[::-1]).translate(_TO_DIGITS), 2) if cs else 0


def _unbits(x: int) -> tuple:
    """The coefficient tuple of the F_2 polynomial held in the bits of x."""
    return tuple(bin(x)[:1:-1].encode().translate(_FROM_DIGITS)) if x else ()


def _f2_divmod(a: int, b: int):
    """Quotient and remainder of F_2 polynomials held as bits, b nonzero:
    each step clears the top bit of the remainder with one shift and one
    XOR."""
    q, db = 0, b.bit_length()
    k = a.bit_length() - db
    while k >= 0:
        q ^= 1 << k
        a ^= b << k
        k = a.bit_length() - db
    return q, a


def _f2_mod(a: int, b: int) -> int:
    """The remainder of ``_f2_divmod``, without building the quotient."""
    db = b.bit_length()
    k = a.bit_length() - db
    while k >= 0:
        a ^= b << k
        k = a.bit_length() - db
    return a


def _f2_gcd(a: int, b: int) -> int:
    """The gcd of F_2 polynomials held as bits, by remainders only: the
    loop of ``_f2_mod`` inlined, one shift and one XOR per bit cleared."""
    while b:
        db = b.bit_length()
        k = a.bit_length() - db
        while k >= 0:
            a ^= b << k
            k = a.bit_length() - db
        a, b = b, a
    return a


#: the parity of a byte as a binary digit
_PARITY_DIGITS = bytes(b"01"[i & 1] for i in range(256))


def _f2_slots(x: int, w: int) -> int:
    """The bits of x spread to slots of w bytes, bit i in the lowest bit
    of slot i."""
    digits = format(x, "b").encode().translate(_FROM_DIGITS)
    if w > 1:
        raw = bytearray(len(digits) * w)
        raw[w - 1::w] = digits
        digits = raw
    return int.from_bytes(digits, "big")


def _f2_mul(a: int, b: int) -> int:
    """The product of F_2 polynomials held as bits, carry-less: one
    Kronecker product on byte slots, whose parities are its bits.  A slot
    sums at most min(len a, len b) ones, so it takes as many bytes as
    that count needs."""
    la, lb = a.bit_length(), b.bit_length()
    if not la or not lb:
        return 0
    w = (min(la, lb).bit_length() + 7) // 8
    c = _f2_slots(a, w) * _f2_slots(b, w)
    return int(c.to_bytes((la + lb - 1) * w, "big")[w - 1::w].translate(_PARITY_DIGITS), 2)


class _F2Reducer:
    """``_Reducer`` over F_2 on residues held as the bits of one int,
    coefficient i in bit i, below 2^n.  The square of a is the binary
    numeral of a read in base 4, which puts bit i at bit 2i; a product is
    ``_f2_mul``; a sum is an XOR; and the remainder mod f is ``_f2_mod``,
    one shift and one XOR per bit cleared.  Multiplying by t is a shift
    and at most one XOR, so powers of t take no product at all."""

    __slots__ = ("n", "f")

    def __init__(self, f: "PrimePoly"):
        if not f:
            raise DivisionByZero("reduction mod the zero polynomial")
        self.n, self.f = f.degree, _bits(f.coeffs)

    @classmethod
    def _of(cls, f: int) -> "_F2Reducer":
        """The reducer mod the nonzero F_2 polynomial held in the bits of f."""
        self = object.__new__(cls)
        self.n, self.f = f.bit_length() - 1, f
        return self

    def lift(self, g: "PrimePoly") -> int:
        return _f2_mod(_bits(g.coeffs), self.f)

    def reduce(self, a: int) -> int:
        return _f2_mod(a, self.f)

    def modulus(self) -> "PrimePoly":
        return self.poly(self.f)

    def halves(self, a: int):
        h = _f2_gcd(self.f, a)
        if not 0 < h.bit_length() - 1 < self.n:
            return None
        return [_F2Reducer._of(h), _F2Reducer._of(_f2_divmod(self.f, h)[0])]

    def poly(self, a: int) -> "PrimePoly":
        return _poly(2, _unbits(a))

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def minus_t(self, h: int) -> int:
        return h ^ 2

    def gcd(self, a: int) -> "PrimePoly":
        return self.poly(_f2_gcd(self.f, a))

    def coprime(self, a: int) -> bool:
        return _f2_gcd(self.f, a) == 1

    def is_one(self, a: int) -> bool:
        return a == 1

    def random(self, rng: Random) -> int:
        return rng.getrandbits(self.n)

    def mul(self, a: int, b: int) -> int:
        return _f2_mod(_f2_mul(a, b), self.f)

    def square(self, a: int) -> int:
        return _f2_mod(int(format(a, "b"), 4), self.f)

    def pow(self, a: int, e: int) -> int:
        """a^e mod f, left-to-right binary powering; when a is t, each
        multiplication by a is a shift."""
        f = self.f
        if e == 0:
            return _f2_mod(1, f)
        r = a
        for bit in bin(e)[3:]:
            r = int(format(r, "b"), 4)
            if bit == "1":
                r = r << 1 if a == 2 else _f2_mul(_f2_mod(r, f), a)
            r = _f2_mod(r, f)
        return r

    def frobenius(self):
        """The map h -> h^2 mod f: a squaring."""
        return self.square


def _reducer(f: "PrimePoly"):
    """The reducer mod f: ``_F2Reducer`` over F_2, ``_Reducer`` otherwise."""
    return _F2Reducer(f) if f.p == 2 else _Reducer(f)


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
            if not m and not term.isdigit():
                raise BadInput(f"cannot parse term {term!r}")
            try:
                c, k = (int(m.group(1) or 1), int(m.group(2) or 1)) if m else (int(term), 0)
            except ValueError:  # past the interpreter's limit on the digits of int text
                raise BadInput(f"cannot read a number in a {len(term)}-character term") from None
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
        return self._combine(other, 1)

    def __sub__(self, other: "PrimePoly") -> "PrimePoly":
        return self._combine(other, self.p - 1)

    def _combine(self, other: "PrimePoly", k: int) -> "PrimePoly":
        """self + k other for k in range(p): one packed sum, whose slots
        each hold at most p - 1 + (p-1)^2 = p (p-1).  The slots of one
        product hold that much: 256^w is a square m^2, so (p-1)^2 < m^2
        gives p <= m and p (p-1) < m^2."""
        self._check(other)
        a, b, p = self.coeffs, other.coeffs, self.p
        if not b:
            return self
        _, pack, unpack = _packer(p, 1)
        return _poly(p, _trimmed(unpack(pack(a) + k * pack(b), max(len(a), len(b)))))

    def __neg__(self) -> "PrimePoly":
        return self * -1

    def __mul__(self, other) -> "PrimePoly":
        if isinstance(other, int):
            # a nonzero scalar keeps the leading coefficient nonzero
            a, p, k = self.coeffs, self.p, other % self.p
            if not a or not k:
                return _poly(p, ())
            _, pack, unpack = _packer(p, 1)
            return _poly(p, tuple(unpack(pack(a) * k, len(a))))
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
        if len(a) < len(b):
            return _poly(p, ()), self
        if p == 2:
            q, r = _f2_divmod(_bits(a), _bits(b))
            return _poly(2, _unbits(q)), _poly(2, _unbits(r))
        quo, rem = _long_division(a, b, p)
        return _poly(p, tuple(quo)), _poly(p, rem)

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
        base = self % mod
        if mod.degree == 0:
            return base
        red = _reducer(mod)
        return red.poly(red.pow(red.lift(base), e))


_set_p, _set_coeffs = PrimePoly.p.__set__, PrimePoly.coeffs.__set__


def _poly(p: int, coeffs: tuple) -> PrimePoly:
    """PrimePoly._of(p, coeffs) for a tuple of ints already in range(p)
    and without trailing zeros, taken as it is."""
    f = object.__new__(PrimePoly)
    _set_p(f, p)
    _set_coeffs(f, coeffs)
    return f


def _long_division(a: tuple, b: tuple, p: int):
    """The quotient, a list, and the remainder, a trimmed tuple, of the
    coefficient tuples a by b over odd p, for len(a) >= len(b) and b
    without trailing zeros: packed long division (see the module
    docstring), whose slots hold p - 1 + (min(dq, db) + 1) (p-1)^2 <=
    (min(dq, db) + 2) (p-1)^2."""
    db, dq = len(b) - 1, len(a) - len(b)
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
    return quo, _trimmed(unpack(rem & (1 << db * bits) - 1, db))


def gcd(a: PrimePoly, b: PrimePoly) -> PrimePoly:
    """Monic greatest common divisor.  The remainder sequence runs on the
    bits of ints over F_2 and on the coefficient tuples of
    ``_long_division`` otherwise, converted only at each end."""
    if a.p == b.p == 2:
        return _poly(2, _unbits(_f2_gcd(_bits(a.coeffs), _bits(b.coeffs))))
    if b:
        a._check(b)
    p, a, b = a.p, a.coeffs, b.coeffs
    while b:
        a, b = b, _long_division(a, b, p)[1] if len(a) >= len(b) else a
    g = _poly(p, a)
    return g.monic() if a else g


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
    """Ben-Or's irreducibility test over F_p (Ben-Or, 1981).

    A reducible f of degree n has an irreducible factor of degree
    d <= n/2, which divides t^(p^d) - t, and an irreducible f has none; so
    with h_d = t^(p^d) mod f, f is irreducible exactly when every h_d - t,
    d <= n/2, is coprime to f.  The h_d come from the Frobenius map of f,
    and the h_d - t of one block of degrees (``_ben_or_block``) are
    multiplied together mod f; the test stops at the first block whose
    product is not coprime to f.
    """
    n = f.degree
    if n <= 0:
        return False
    red = _reducer(f)
    frob, h, d, cap = red.frobenius(), red.lift(_poly(f.p, (0, 1))), 0, max(1, isqrt(n))
    while 2 * (d + 1) <= n:
        block = []
        for _ in range(_ben_or_block(d, cap, n)):
            h = frob(h)
            block.append(red.minus_t(h))
        d += len(block)
        if not red.coprime(reduce(red.mul, block)):
            return False
    return True


def _ben_or_block(d: int, cap: int, m: int) -> int:
    """How many degrees Ben-Or's block after degree d holds, when m is the
    degree not yet split and cap = max(1, isqrt(n)) for the whole degree n:
    max(d, 1), so 1, 1, 2, 4, ..., at most cap and at most up to m / 2.
    Most polynomials have a factor of small degree, which the short first
    blocks find after few products."""
    return min(max(d, 1), cap, m // 2 - d)


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
    else:  # irreducibles exist in every degree, so one is found
        found = next(f for c0 in range(1, p) for rest in _count_vectors(p, n - 1)
                     if is_irreducible(f := PrimePoly._of(p, (c0,) + rest + (1,))))
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


def _power_sums(f: PrimePoly, count: int, mod: int) -> list[int]:
    """The power sums s_0 .. s_count of the roots of the monic f, mod
    ``mod``, by Newton's identities, which need no division:
    s_k = -k c_(d-k) - sum_{0<i<min(k, d+1)} c_(d-i) s_(k-i)."""
    d = f.degree
    top = f.coeffs[::-1]  # top[i] is the coefficient of t^(d-i)
    sums = [d % mod]
    for k in range(1, count + 1):
        j = min(k - 1, d)
        x = sum(map(mul, top[1:j + 1], sums[k - 1:k - j - 1:-1]))
        if k <= d:
            x += k * top[k]
        sums.append(-x % mod)
    return sums


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
    it is asked for.

    With h_d = t^(p^d) mod f, the factors of degree d divide h_d - t.
    Each h_d is one step of the Frobenius map (``frobenius``), taken mod
    the part not yet split: the matrix of f, once built, stays, and its
    output is reduced mod that part.  The h_d - t of a block of degrees
    (``_ben_or_block``) are multiplied together mod that part, and one gcd
    per block finds whether any of them has a factor there; only then is
    the block gone through degree by degree, so the pieces are the same as
    one gcd per degree gives.
    """
    p = f.p
    rest, d, red = f, 0, _reducer(f)
    frob, linear = red.frobenius(), _linear_frobenius(p, f.degree)
    h = red.lift(_poly(p, (0, 1)))
    cap = max(1, isqrt(f.degree))
    while rest.degree > 0:
        if 2 * (d + 1) > rest.degree:
            yield rest, rest.degree
            return
        if red.n != rest.degree:
            old, red = red, _reducer(rest)
            h = red.lift(old.poly(h))
            # a matrix is kept and its output reduced; a squaring or a
            # power mod rest costs nothing to set up
            if linear:
                frob = (lambda h, red=red, full=frob: red.reduce(full(h)))
            else:
                frob = red.frobenius()
        hs = []
        for _ in range(_ben_or_block(d, cap, rest.degree)):
            h = frob(h)
            hs.append(h)
        block = red.gcd(reduce(red.mul, map(red.minus_t, hs)))
        for hd in hs:
            d += 1
            if block.degree == 0:  # no factor left in this block
                continue
            if 2 * d > rest.degree:
                yield rest, rest.degree
                return
            g = gcd(block, red.poly(red.minus_t(hd)))
            if g.degree > 0:
                yield g, d
                rest = rest // g
                block = block // g


def _split_by(red, w, d: int, frob=None):
    """The reducers mod the proper factor h of g that the residue w cuts
    out and mod g / h (``halves``), or None when w cuts out none.  red
    is the reducer mod g, and every irreducible factor of g has degree d.

    Over F_2, h = gcd(g, w + w^2 + ... + w^(2^(d-1))), the trace of w
    onto F_2.  Otherwise h = gcd(g, w^((p^d-1)/2) - 1), the power taken
    as (w w^p ... w^(p^(d-1)))^((p-1)/2): the norm of w onto F_p, by
    d - 1 steps of frob, the Frobenius map of red, raised to (p-1)/2
    (von zur Gathen & Gerhard, Modern Computer Algebra, 14.3).
    """
    acc = w
    two = type(red) is _F2Reducer
    for _ in range(d - 1):
        w = frob(w)
        acc = red.add(acc, w) if two else red.mul(acc, w)
    if not two:
        p = red.p
        acc = red.add(red.pow(acc, (p - 1) // 2), red.lift(_poly(p, (p - 1,))))
    return red.halves(acc)


def equal_degree_split(f: PrimePoly, d: int, rng: Random | None = None) -> list[PrimePoly]:
    """Split monic squarefree f, all of whose irreducible factors have
    degree d, into those factors (Cantor-Zassenhaus).

    Each piece is split by ``_split_by`` on residues drawn from a seeded
    generator until one cuts out a proper factor, so the call is
    deterministic; the returned list is sorted by coefficient tuple.
    """
    if rng is None:
        rng = Random(0xA590)
    pieces = [_reducer(f)]
    done: list[PrimePoly] = []
    while pieces:
        red = pieces.pop()
        if red.n == d:
            done.append(red.modulus())
            continue
        frob = red.frobenius() if d > 1 else None
        halves = None
        while halves is None:
            halves = _split_by(red, red.random(rng), d, frob)
        pieces += halves
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
