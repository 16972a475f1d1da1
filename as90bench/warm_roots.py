"""warm-roots: ``factor_artin_schreier`` against contexts that are already warm.

This is the steady-state cost of the closed form: field mul, add,
Frobenius, the warm trace, ``r_form`` and ``find_trace_one``, with every
cache hit.  The nine fields cover the table, general, coprime and np_p
constructors.  GF(2^32) uses the table-row presentation on purpose: with
the default modulus its one-off embedding costs seconds, which belongs
to cold-cli, and would stop ``setup_s`` being sampled several times.

One client, closed loop.  A block asks each field four times in seeded
order: three inputs y = x^q - x (a root exists) and one y of nonzero
trace (no root), drawn from a seeded per-field pool.
"""

from __future__ import annotations

import time
from random import Random

#: (name, p, n, f, modulus or None for the default, expected constructor)
FIELDS = (
    ("GF(2^8)", 2, 8, 1, None, "table"),
    ("GF(2^64)", 2, 64, 1, None, "general"),
    ("GF(3^40)", 3, 40, 1, None, "coprime"),
    ("GF(5^27)", 5, 27, 1, None, "coprime"),
    ("GF(65521^4)", 65521, 4, 1, None, "coprime"),
    ("GF((2^32-5)^2)", 2**32 - 5, 2, 1, None, "coprime"),
    ("GF(7^14)", 7, 14, 1, None, "np_p"),
    ("GF(3^12)/GF(3^2)", 3, 12, 2, None, "general"),
    ("GF(2^32) table row", 2, 32, 1, "t^32+t^31+t^3+t+1", "table"),
)
ROOT_QUERIES, NO_ROOT_QUERIES = 3, 1
ROOT_POOL, NO_ROOT_POOL = 8, 4
SETUP_CHILDREN = 2
TRACED_BLOCKS = 6


def timed_setup(seed: int, smoke: bool = False):
    """Import, the nine contexts and one untimed query each.

    The set-up query is t^q - t - (gen^q - gen), the same for every seed,
    so set-up time does not depend on the seed.
    """
    t0 = time.perf_counter()
    import as90

    contexts = []
    for _, p, n, f, modulus, _ in FIELDS:
        ctx = as90.make_ctx(p, n, modulus=modulus, f=f)
        g = ctx.gen()
        as90.factor_artin_schreier(as90.ArtinSchreierInstance(ctx, g**ctx.q - g))
        contexts.append(ctx)
    return time.perf_counter() - t0, contexts


def power_sum_trace(y):
    """Tr(y) onto GF(q) as y + y^q + ... + y^(q^(m-1)), using only ** and +."""
    ctx = y.ctx
    term, total = y, y
    for _ in range(ctx.m - 1):
        term = term**ctx.q
        total = total + term
    return total


def make_pools(contexts, seed: int):
    """Per field: ROOT_POOL inputs x^q - x and NO_ROOT_POOL inputs of
    nonzero trace with that trace, built with ** only."""
    rng = Random(f"warm-roots/{seed}")
    pools = []
    for ctx in contexts:
        def draw():
            return ctx.elem([rng.randrange(ctx.p) for _ in range(ctx.n)])

        roots = []
        for _ in range(ROOT_POOL):
            x = draw()
            roots.append(x**ctx.q - x)
        no_roots = []
        while len(no_roots) < NO_ROOT_POOL:
            y = draw()
            tr = power_sum_trace(y)
            if not tr.is_zero():
                no_roots.append((y, tr))
        pools.append((roots, no_roots))
    return pools


def block_inputs(seed: int, b: int):
    """The 36 queries of block b: (field index, has_root, pool index)."""
    rng = Random(f"warm-roots/{seed}/{b}")
    order = []
    for i in range(len(FIELDS)):
        order += [(i, True, rng.randrange(ROOT_POOL)) for _ in range(ROOT_QUERIES)]
        order += [(i, False, rng.randrange(NO_ROOT_POOL)) for _ in range(NO_ROOT_QUERIES)]
    rng.shuffle(order)
    return order


class Client:
    """Warm contexts plus the answers seen, keyed by input."""

    def __init__(self, contexts, seed: int):
        import as90

        self.as90 = as90  # looked up per call, so the tracer's wrappers are seen
        self.contexts = contexts
        self.seed = seed
        self.pools = make_pools(contexts, seed)
        self.answers: dict[tuple, dict[str, list]] = {}

    def run_block(self, b: int, tracer=None):
        """Run block b; returns the per-query latencies in seconds."""
        clock = time.perf_counter
        lat = []
        for i, has_root, k in block_inputs(self.seed, b):
            ctx = self.contexts[i]
            y = self.pools[i][0][k] if has_root else self.pools[i][1][k][0]
            if tracer is not None:
                tracer.request_id += 1
            t0 = clock()
            try:
                result = self.as90.factor_artin_schreier(self.as90.ArtinSchreierInstance(ctx, y))
            except Exception as exc:  # noqa: BLE001 - counted as a failed query
                result = exc
            lat.append(clock() - t0)
            base = getattr(result, "base_root", None)
            key = (f"{result.method} {base}" if base is not None
                   else getattr(result, "status", f"error {type(result).__name__}: {result}"))
            seen = self.answers.setdefault((i, has_root, k), {})
            seen.setdefault(key, [result, 0])[1] += 1
        return lat

    def digest_source(self) -> list[str]:
        return [f"{key} -> {sorted(seen)}" for key, seen in sorted(self.answers.items())]

    def verify(self) -> int:
        """Re-check every distinct answer; returns the number of failed queries."""
        failed = 0
        for (i, has_root, k), seen in self.answers.items():
            ctx = self.contexts[i]
            expected_method = FIELDS[i][5]
            for result, count in seen.values():
                if len(seen) > 1:  # one input, different answers
                    failed += count
                    continue
                if has_root:
                    y = self.pools[i][0][k]
                    x = getattr(result, "base_root", None)
                    ok = (x is not None and result.method == expected_method
                          and x**ctx.q - x == y)
                else:
                    # the pool kept only inputs whose power-sum trace is nonzero
                    ok = (not hasattr(result, "base_root")
                          and not self.pools[i][1][k][1].is_zero()
                          and getattr(result, "status", None)
                          == ("irreducible" if ctx.q == ctx.p else "undetermined"))
                if not ok:
                    failed += count
        return failed
