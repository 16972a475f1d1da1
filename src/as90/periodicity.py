"""Periodic structure of partial-trace sequences.

For z with trace one over the base subfield, the running partial sums
x_i = z + sigma(z) + ... + sigma^{i-1}(z) repeat with period exactly
p*e, where e is the degree of z over the base and p the characteristic.
The statement (period, divisibility by the p-part, nonvanishing between
wrap-arounds) is checked on the x_d at the divisors d of p*m, each an
orbit sum taken by doubling, since d is a period exactly when x_d = 0.
"""

from __future__ import annotations

from ._record import Record
from .errors import TraceNotOne
from .fields import FieldElem, _orbit_sum, degree_over_subfield, frobenius, trace
from .intfactor import factorint, least_divisor, p_part


class PartialTraceSeq(Record):
    """A stored prefix of the sequence x_i = sum_{j<i} sigma^{jk}(z),
    with the period of the whole sequence."""

    __slots__ = _fields = ("terms", "p", "e", "period")

    def __init__(self, terms: list, p: int, e: int, period: int):
        self.terms, self.p, self.e, self.period = terms, p, e, period

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


class PeriodReport(Record):
    """Outcome of checking the period statement for one witness."""

    __slots__ = _fields = ("e", "n_p", "period", "expected_period", "interior_nonzero", "passed")

    def __init__(self, e: int, n_p: int, period: int, expected_period: int,
                 interior_nonzero: bool, passed: bool):
        self.e, self.n_p, self.period = e, n_p, period
        self.expected_period, self.interior_nonzero, self.passed = (
            expected_period, interior_nonzero, passed)

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "n_p": self.n_p,
            "period": self.period,
            "expected_period": self.expected_period,
            "interior_nonzero": self.interior_nonzero,
            "pass": self.passed,
        }


def partial_trace_terms(z: FieldElem, length: int, k: int = 1) -> list[FieldElem]:
    """First ``length`` partial sums of the conjugates of z, x_0 = 0."""
    ctx = z.ctx
    terms = [ctx.zero()]
    w = z
    for _ in range(length - 1):
        terms.append(terms[-1] + w)
        w = frobenius(w, k)
    return terms


def partial_sum_period(z: FieldElem, k: int = 1) -> int:
    """Least period of x_i = sum_{j<i} sigma^{jk}(z), for k prime to m.

    x_{i+d} - x_i = sigma^{ik}(x_d), so the periods are the zeros of x.
    sigma^k has order m, so x_d = x_{d mod m} + floor(d/m) x_m, and p*m
    is a period: the period is the least divisor of p*m with x_d = 0.
    Each x_d probed is S_{d mod m}(z) + floor(d/m) S_m(z), orbit sums
    under sigma^k, by doubling; no term is stored.
    """
    p, m, step = z.ctx.p, z.ctx.m, z.ctx.f * k
    whole = _orbit_sum(z, m, step)
    return least_divisor(p * m, factorint(p * m),
                         lambda d: (_orbit_sum(z, d % m, step) + d // m * whole).is_zero())


def verify_period_theorem(z: FieldElem) -> PeriodReport:
    """Measure the period of the partial-trace sequence of z and compare
    with the predicted value p*e.

    Requires trace(z) = 1 over the designated subfield.  The report
    records e = deg(z) over that subfield, the p-part of the extension
    degree (which must divide e), the measured period, and whether all
    interior terms x_l (0 < l < p*e) are nonzero: the period is the least
    d with x_d = 0 and divides p*e, as x_{pe} = p*x_e = 0.
    """
    ctx = z.ctx
    if trace(z, ctx.f) != 1:
        raise TraceNotOne("the partial-trace period statement needs trace(z) = 1")
    p = ctx.p
    e = degree_over_subfield(z, ctx.f)
    n_p = p_part(ctx.m, p)
    expected = p * e
    period = partial_sum_period(z)
    interior = period == expected
    passed = interior and e % n_p == 0
    return PeriodReport(
        e=e,
        n_p=n_p,
        period=period,
        expected_period=expected,
        interior_nonzero=interior,
        passed=passed,
    )
