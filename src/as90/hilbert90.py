"""Additive Hilbert 90 made explicit.

Given the cyclic extension E/F cut out by a field context (F = GF(q),
sigma: x -> x^q), any y with trace zero is a sigma-difference:
y = sigma(x) - x.  The solution is written down directly from a
trace-one witness z as

    x = R(y, z) = sum_i ( sum_{j<i} sigma^j(z) ) * sigma^i(y),

with the partial sums of z acting as coefficients.  This module finds
witnesses, evaluates R, and packages verified (y, z, x) certificates.
"""

from __future__ import annotations

import math
from random import Random

from ._record import Record
from .errors import (
    BadInput,
    CtxMismatch,
    NoSuchDegree,
    RandomRetriesExhausted,
    TraceNotOne,
    TraceNotZero,
)
from .fields import (
    FieldCtx,
    FieldElem,
    _frob_cols,
    _kernel,
    _walk,
    degree_over_subfield,
    frobenius,
    make_ctx,
    solve_in_span,
    subfield_embed,
    trace,
)
from .intfactor import p_part
from .periodicity import PartialTraceSeq, partial_sum_period, partial_trace_terms

__all__ = [
    "TraceOneWitness",
    "RootCertificate",
    "p_part",
    "find_trace_one",
    "partial_trace_sequence",
    "r_form",
    "r_symmetry_defect",
]


class TraceOneWitness(Record):
    """An element z of E with trace 1 over F and deg_F(z) = e."""

    __slots__ = _fields = ("z", "e", "provenance")

    def __init__(self, z: FieldElem, e: int, provenance: str):
        self.z, self.e, self.provenance = z, e, provenance


class RootCertificate(Record):
    """A checked solution of sigma^k(x) - x = y built from witness z."""

    __slots__ = _fields = ("y", "z", "x", "k", "checked")

    def __init__(self, y: FieldElem, z: FieldElem, x: FieldElem, k: int = 1,
                 checked: bool = False):
        self.y, self.z, self.x, self.k, self.checked = y, z, x, k, checked

    def serialize(self) -> str:
        ctx = self.y.ctx
        return (
            f"field={ctx.describe()} y={self.y} z={self.z} x={self.x} "
            f"k={self.k} verified={'true' if self.checked else 'false'}"
        )

    def to_dict(self) -> dict:
        ctx = self.y.ctx
        return {
            "field": ctx.describe(),
            "y": str(self.y),
            "z": str(self.z),
            "x": str(self.x),
            "k": self.k,
            "verified": self.checked,
        }


def _check_generator(ctx: FieldCtx, k: int):
    if math.gcd(k, ctx.m) != 1:
        raise BadInput(f"sigma^{k} does not generate the Galois group of order {ctx.m}")


def _trace_one(zeta: FieldElem, ctx: FieldCtx) -> FieldElem:
    """zeta, from ctx or a subfield context, embedded into ctx and divided
    by its trace onto GF(q): every witness is scaled to trace 1 here.  A
    zeta of trace zero raises TraceNotOne."""
    z = subfield_embed(zeta, ctx)
    tau = trace(z, ctx.f)
    if tau.is_zero():
        raise TraceNotOne(f"the witness {zeta} has trace 0 onto {ctx.q}")
    return z if tau == 1 else z / tau


def find_trace_one(
    ctx: FieldCtx,
    target_e: int | None = None,
    seed: int = 0,
    randomize: bool = False,
) -> TraceOneWitness:
    """Produce z in E with trace 1 over F and deg_F(z) = target_e.

    target_e defaults to n_p, the p-part of the extension degree, which
    is the smallest degree any trace-one witness can have.  For the
    default degree zeta is the least element, by coefficient tuple, of
    the fixed field K of sigma^{n_p} with trace 1 onto F: the least
    solution of a linear system, by one row reduction.  Its degree is
    n_p, as the trace onto F vanishes on each proper subfield of K; for
    n_p = 1, zeta = 1.  Larger degrees (multiples of n_p dividing the
    extension degree), and any degree with ``randomize``, use seeded
    rejection sampling: zeta is the first draw from the degree-target
    subfield of that degree with nonzero trace.  Either way z is zeta
    embedded into E and divided by its trace there, by ``_trace_one``:
    for the default degree that trace is the scalar n_p' = m / n_p, so z
    is the least element of K with trace (n_p')^{-1} onto F.
    """
    p, m = ctx.p, ctx.m
    m_p = p_part(m, p)
    target = m_p if target_e is None else target_e
    if target < 1 or target % m_p != 0 or m % target != 0:
        raise NoSuchDegree(
            f"witness degrees over the base are the multiples of {m_p} dividing {m}; "
            f"got {target}"
        )
    solved = target == m_p and not randomize
    if solved and m_p == 1:
        zeta = ctx.one()
    else:
        sub = ctx if ctx.f * target == ctx.n else make_ctx(p, ctx.f * target, f=ctx.f)
        if solved:
            cols = [trace(sub.elem((0,) * k + (1,)), sub.f).coeffs for k in range(sub.n)]
            # reversed, the free coordinates set to 0 are the lowest possible
            combo = solve_in_span(cols[::-1], sub.one().coeffs, p)
            zeta = sub.elem((combo or ())[::-1])  # no solution gives 0, refused below
            if degree_over_subfield(zeta, sub.f) != m_p:
                raise RuntimeError(f"no trace-one witness of degree {m_p} in {sub.describe()}")
        else:
            rng = Random(seed)
            for _ in range(64):
                zeta = sub.random_element(rng)
                if degree_over_subfield(zeta, sub.f) == target and trace(zeta, sub.f) != 0:
                    break
            else:
                raise RandomRetriesExhausted(f"no usable witness after 64 draws (seed {seed})")
    provenance = "deterministic-subfield" if solved else f"random-scaled(seed={seed})"
    return TraceOneWitness(z=_trace_one(zeta, ctx), e=target, provenance=provenance)


def partial_trace_sequence(z: FieldElem, length: int | None = None, k: int = 1) -> PartialTraceSeq:
    """The first ``length`` partial sums x_i = sum_{j<i} sigma^{jk}(z),
    packaged with their period.

    x_0 .. x_m determine every other term, so ``length`` defaults to
    m + 1.  The period comes from ``partial_sum_period``, which stores no
    term, however many are stored here.
    """
    ctx = z.ctx
    _check_generator(ctx, k)
    if length is None:
        length = ctx.m + 1
    if length < 1:
        raise BadInput("need at least one term")
    return PartialTraceSeq(terms=partial_trace_terms(z, length, k), p=ctx.p,
                           e=degree_over_subfield(z, ctx.f), period=partial_sum_period(z, k))


def _multipliers(b: FieldElem, k: int = 1) -> dict:
    """The multipliers of b for R(., b): c_i = sigma^{-2^i k}(x_{2^i}),
    x_j = sum_{l<j} sigma^{lk}(b), keyed by the shift 2^i k, 2^i <= m.

    No inverse power is needed: as sigma^{km} = 1, c_i = x_m - x_{m-2^i}.
    The x_{2^i} double, x_{2^(i+1)} = x_{2^i} + sigma^{2^i k}(x_{2^i}); x_m
    joins them along the bits of m, low first, as ``fields._walk`` does;
    and x_{m-2^(i-1)} = x_{2^(i-1)} + sigma^{2^(i-1) k}(x_{m-2^i}) runs down
    from x_{m-2^top}, the low bits of m.  So the multipliers cost O(log m)
    applications of the Frobenius powers that ``_r_raw`` uses anyway.
    """
    ctx = b.ctx
    kern = _kernel(ctx)
    top = ctx.m.bit_length() - 1

    def frob(i):
        return _frob_cols(ctx, ctx.f * (k << i))

    xs = [b.coeffs]  # xs[i] = x_{2^i}
    for i in range(top):
        xs.append(frob(i).apply_add(xs[i], xs[i]))
    rest = (0,) * ctx.n  # x of the low bits of m read so far
    for i in range(top):
        if ctx.m >> i & 1:
            rest = frob(i).apply_add(rest, xs[i])
    total = frob(top).apply_add(rest, xs[top]) if ctx.m > 1 << top else xs[top]
    cs = {}
    for i in range(top, -1, -1):
        cs[k << i] = kern.sub(total, rest)  # rest = x_{m-2^i}
        if i:
            rest = frob(i - 1).apply_add(rest, xs[i - 1])
    return cs


def _r_raw(a: FieldElem, b: FieldElem, k: int = 1, cs: dict | None = None) -> FieldElem:
    """R(a, b) = sum_{i<m} x_i sigma^{ik}(a), x_i = sum_{j<i} sigma^{jk}(b),
    no checks; ``cs`` are b's ``_multipliers`` for k, built here when the
    caller keeps none.

    Evaluated by the doubling walk ``fields._walk``.  A block of length
    L is (A, Y) = (sum_{i<L} x_i sigma^{ik}(a), sum_{i<L} sigma^{ik}(a)),
    two coefficient tuples, and R(a, b) is the A of the block of length
    m.  The walk's first block is always a doubling block, of length
    2^i, and with F = sigma^{2^i k} its x_{2^i} is F(c_i).  So block
    ``first`` followed by block ``second`` is
    (A1 + F(A2 + c_i Y2), Y1 + F(Y2)): two applications of the cached
    map F and one fused kernel product ``mul_add``.  A call costs
    O(log m) cached Frobenius powers, does no work on b once cs is
    given, and builds one FieldElem, the answer.
    """
    ctx = a.ctx
    kern = _kernel(ctx)
    if cs is None:
        cs = _multipliers(b, k)

    def join(first, second, shift):
        a1, y1 = first
        a2, y2 = second
        frob = _frob_cols(ctx, ctx.f * shift)
        return frob.apply_add(kern.mul_add(cs[shift], y2, a2), a1), frob.apply_add(y2, y1)

    return FieldElem(ctx, _walk(ctx.m, k, ((0,) * ctx.n, a.coeffs), join)[0])


def r_form(y: FieldElem, z: FieldElem, k: int = 1) -> RootCertificate:
    """Solve sigma^k(x) - x = y explicitly using the witness z.

    Preconditions: trace(y) = 0 and trace(z) = 1 over the designated
    subfield.  The returned certificate has been re-verified, so
    ``checked`` is only ever True.
    """
    _check_pair(y, z, k)
    return _certified(y, z, k)


def _check_pair(y: FieldElem, z: FieldElem, k: int):
    """The preconditions of R(y, z): one context, sigma^k a generator,
    trace(y) = 0 and trace(z) = 1 over the designated subfield."""
    ctx = y.ctx
    if z.ctx != ctx:
        raise CtxMismatch("y and z live in different contexts")
    _check_generator(ctx, k)
    if not trace(y, ctx.f).is_zero():
        raise TraceNotZero("y has nonzero trace, so it is not a sigma-difference")
    if trace(z, ctx.f) != 1:
        raise TraceNotOne("witness z must have trace 1")


def _certified(y: FieldElem, z: FieldElem, k: int = 1, cs: dict | None = None) -> RootCertificate:
    """r_form(y, z, k) for a caller that has already checked its
    preconditions, with z's ``_multipliers`` ``cs`` if it keeps them; the
    root is still verified by sigma^k(x) - x = y."""
    x = _r_raw(y, z, k, cs)
    if frobenius(x, k) - x != y:
        raise RuntimeError("cocycle identity failed; arithmetic is broken")
    return RootCertificate(y=y, z=z, x=x, k=k, checked=True)


def r_symmetry_defect(y: FieldElem, z: FieldElem, k: int = 1) -> FieldElem:
    """R(y,z) + R(z,y) + trace(y*z), which the antisymmetry law makes 0.

    Both cocycle orientations are re-checked along the way:
    sigma R(y,z) - R(y,z) = y and R(z,y) - sigma R(z,y) = y.
    """
    _check_pair(y, z, k)
    ryz = _r_raw(y, z, k)
    rzy = _r_raw(z, y, k)
    if frobenius(ryz, k) - ryz != y:
        raise RuntimeError("forward cocycle identity failed")
    if rzy - frobenius(rzy, k) != y:
        raise RuntimeError("reversed cocycle identity failed")
    return ryz + rzy + trace(y * z, y.ctx.f)
