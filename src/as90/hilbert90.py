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


def find_trace_one(
    ctx: FieldCtx,
    target_e: int | None = None,
    seed: int = 0,
    randomize: bool = False,
) -> TraceOneWitness:
    """Produce z in E with trace 1 over F and deg_F(z) = target_e.

    target_e defaults to n_p, the p-part of the extension degree, which
    is the smallest degree any trace-one witness can have.  For the
    default degree the witness is the least z, by coefficient tuple, in
    the fixed field K of sigma^{n_p} with trace (n_p')^{-1} onto F: the
    least solution of a linear system, by one row reduction.  Its degree
    is n_p, as the trace onto F vanishes on each proper subfield of K;
    for n_p = 1 it is the scalar 1/m.  Larger degrees (multiples of n_p
    dividing the extension degree), and any degree with ``randomize``,
    use seeded rejection sampling: draw zeta in the degree-target
    subfield, reject on wrong degree or vanishing trace, return zeta
    scaled by its inverse trace.  Either witness is built in that
    subfield and embedded into ctx once.
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
    scale = (m // target) % p  # m / target divides m / m_p, prime to p
    if solved and m_p == 1:
        z = ctx.elem(pow(scale, -1, p))
    else:
        sub = ctx if ctx.f * target == ctx.n else make_ctx(p, ctx.f * target, f=ctx.f)
        if solved:
            want = sub.elem(pow(scale, -1, p))
            cols = [trace(sub.elem((0,) * k + (1,)), sub.f).coeffs for k in range(sub.n)]
            # reversed, the free coordinates set to 0 are the lowest possible
            combo = solve_in_span(cols[::-1], want.coeffs, p)
            z0 = sub.elem((combo or ())[::-1])  # no solution gives 0, refused below
            if trace(z0, sub.f) != want or degree_over_subfield(z0, sub.f) != m_p:
                raise RuntimeError(f"no trace-one witness of degree {m_p} in {sub.describe()}")
        else:
            rng = Random(seed)
            for _ in range(64):
                zeta = sub.random_element(rng)
                if zeta.is_zero() or degree_over_subfield(zeta, sub.f) != target:
                    continue
                tau = trace(zeta, sub.f) * scale
                if not tau.is_zero():
                    z0 = zeta / tau
                    break
            else:
                raise RandomRetriesExhausted(
                    f"no usable witness after 64 draws (seed {seed})"
                )
        z = z0 if sub is ctx else subfield_embed(z0, ctx)
    if trace(z, ctx.f) != 1:
        raise RuntimeError(f"witness {z} does not have trace 1")
    provenance = "deterministic-subfield" if solved else f"random-scaled(seed={seed})"
    return TraceOneWitness(z=z, e=target, provenance=provenance)


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


def _r_raw(a: FieldElem, b: FieldElem, k: int = 1) -> FieldElem:
    """R(a, b) = sum_{i<m} x_i sigma^{ik}(a), x_i = sum_{j<i} sigma^{jk}(b),
    no checks.

    Evaluated by the doubling walk ``fields._walk``.  A block of length
    L is (A, X, Y) = (sum_{i<L} x_i sigma^{ik}(a), x_L,
    sum_{i<L} sigma^{ik}(a)), three coefficient tuples, and R(a, b) is
    the A of the block of length m.  Block ``first`` followed by block
    ``second``, where F = sigma^shift shifts by len(first), is
    (F(A2) + A1 + X1 F(Y2), F(X2) + X1, Y1 + F(Y2)): three applications
    of the cached map F and one kernel product.  So a call costs
    O(log m) cached Frobenius powers instead of 2m Frobenius steps, and
    builds one FieldElem, the answer.
    """
    ctx = a.ctx
    kern = _kernel(ctx)

    def join(first, second, shift):
        a1, x1, y1 = first
        a2, x2, y2 = second
        frob = _frob_cols(ctx, ctx.f * shift)
        y2 = frob.apply(y2)
        return (frob.apply_add(a2, kern.add(a1, kern.mul(x1, y2))), frob.apply_add(x2, x1),
                kern.add(y1, y2))

    return FieldElem(ctx, _walk(ctx.m, k, ((0,) * ctx.n, b.coeffs, a.coeffs), join)[0])


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


def _certified(y: FieldElem, z: FieldElem, k: int = 1) -> RootCertificate:
    """r_form(y, z, k) for a caller that has already checked its
    preconditions; the root is still verified by sigma^k(x) - x = y."""
    x = _r_raw(y, z, k)
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
