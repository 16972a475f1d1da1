"""Reference for the period tests: the least period of a stored sequence
by comparing its terms, with no use of the rule that d is a period
exactly when x_d = 0."""

from as90.polys import PrimePoly


def naive_period(seq, bound):
    """The least d <= bound with seq[i] == seq[i + d] over the whole
    stored prefix, by a linear scan; None when there is none."""
    for d in range(1, bound + 1):
        if all(seq[i] == seq[i + d] for i in range(len(seq) - d)):
            return d
    return None


def partial_sums_of_t(f: PrimePoly, count: int) -> list[PrimePoly]:
    """x_0 .. x_{count-1} with x_i = t + t^2 + ... + t^(2^(i-1)) mod f,
    f over F_2, by PrimePoly products and remainders."""
    terms, w = [PrimePoly.zero(2)], PrimePoly.x(2) % f
    for _ in range(count - 1):
        terms.append(terms[-1] + w)
        w = w * w % f
    return terms
