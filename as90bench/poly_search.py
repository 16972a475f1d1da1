"""poly-search: in-process polynomial jobs that use no field elements.

Big primitive search, cyclotomic factor patterns, reference-table
checks, integer factoring of group orders, tensor products and full
factorization over F_2, F_3 and F_65521.  Only ``polys``, ``bigpoly``,
``intfactor`` and ``periodicity`` run here, so Rabin versus Ben-Or
testing and the Miller-Rabin test in every ``PrimePoly.__init__`` show,
and a change to field arithmetic must leave this workload unmoved.

One client, closed loop.  A block runs the whole job list in seeded
order; the fixed jobs have stored answers, the seeded tensor and
factor jobs are checked by invariants.
"""

from __future__ import annotations

import json
import time
from random import Random

import harness

BIG_PRIMITIVE = (8, 12, 16, 20, 24, 32)
CYCLOTOMIC = ((31, 2), (73, 2), (127, 2), (257, 2), (13, 3), (31, 5))
TABLE = ((2, None), (4, None), (8, None), (16, None), (32, None), (16, "t^16+t^15+t^8+t+1"))
GROUP_ORDERS = (2**8 - 1, 2**16 - 1, 2**32 - 1, 2**48 - 1, 2**61 - 1, 2**62 - 1, 2**64 - 1,
                3**12 - 1, 3**40 - 1, 5**27 - 1, 7**14 - 1, 65521**4 - 1)
#: (p, deg a, deg b, jobs) for tensor products, (p, degree, jobs) for factor.
#: Over F_2 and F_3 the companion matrices are sparse, so a product's cost
#: depends on the seeded coefficients, and so does that of ``factor``.  The
#: dense 3x3 products over F_65521 cost the same for every seed; they are
#: the many jobs in the middle of the mix, which keeps ``op_p50_ms`` from
#: depending on the seed.
TENSOR = ((2, 6, 5, 6), (3, 5, 4, 6), (65521, 3, 3, 24))
FACTOR = ((2, 48, 2), (3, 24, 2), (65521, 12, 2))
SETUP_CHILDREN = 4
TRACED_BLOCKS = 3
EXPECTED = harness.BENCH_DIR / "expected" / "poly_search.json"


def build_jobs(seed: int, smoke: bool = False):
    """[(key, function name in as90, args)]; keys of fixed jobs index the
    stored answers.  Functions are looked up per call, so the tracer's
    wrappers are seen exactly while it is installed."""
    from as90 import PrimePoly

    jobs = [(f"find_big_primitive e={e}", "find_big_primitive", (e,)) for e in BIG_PRIMITIVE]
    jobs += [(f"factor_cyclotomic r={r} p={p}", "factor_cyclotomic", (r, p)) for r, p in CYCLOTOMIC]
    for n2, literal in TABLE:
        args = (n2,) if literal is None else (n2, PrimePoly.parse(literal, 2))
        jobs.append((f"verify_table_entry {n2} {literal or 'row'}", "verify_table_entry", args))
    jobs += [(f"factorint {m}", "factorint", (m,)) for m in GROUP_ORDERS]
    rng = Random(f"poly-search/{seed}")

    def monic(p, d):
        return PrimePoly(p, [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)] + [1])

    for p, da, db, count in TENSOR:
        for k in range(1 if smoke else count):
            jobs.append((f"seeded tensor_product p={p} #{k}", "tensor_product",
                         (monic(p, da), monic(p, db))))
    for p, d, count in FACTOR:
        for k in range(1 if smoke else count):
            jobs.append((f"seeded factor p={p} #{k}", "factor", (monic(p, d),)))
    if smoke:
        jobs = [j for j in jobs if "e=32" not in j[0] and "r=257" not in j[0]]
    return jobs


def timed_setup(seed: int, smoke: bool = False):
    """Import plus building the job list."""
    t0 = time.perf_counter()
    import as90  # noqa: F401

    jobs = build_jobs(seed, smoke)
    return time.perf_counter() - t0, jobs


def render(key: str, result) -> str:
    """Canonical text of a job's answer."""
    if key.startswith("verify_table_entry"):
        return json.dumps(result.to_dict(), sort_keys=True)
    if key.startswith("factorint"):
        return json.dumps(sorted(result.items()))
    if key.startswith("seeded factor"):
        return json.dumps([(str(g), k) for g, k in result])
    if isinstance(result, list):
        return json.dumps([str(g) for g in result])
    return str(result)


def invariant(key: str, args, result) -> bool:
    """Cheap checks that hold whatever the stored answers say."""
    from as90 import PrimePoly

    if key.startswith("factor_cyclotomic"):
        r, p = args
        product = PrimePoly.one(p)
        for g in result:
            product = product * g
        return product == PrimePoly(p, (1,) * r) and len({g.degree for g in result}) == 1
    if key.startswith("factorint"):
        total = 1
        for q, k in result.items():
            total *= q**k
        return total == args[0]
    if key.startswith("seeded tensor_product"):
        a, b = args
        return result.degree == a.degree * b.degree
    if key.startswith("seeded factor"):
        product = PrimePoly.one(args[0].p)
        for g, k in result:
            if not g.is_monic() or g.degree < 1:
                return False
            for _ in range(k):
                product = product * g
        return product == args[0]
    return True


class Client:
    def __init__(self, jobs, seed: int):
        import as90

        self.as90 = as90
        self.jobs = jobs
        self.seed = seed
        self.answers: dict[int, dict[str, list]] = {}

    def run_block(self, b: int, tracer=None):
        """Run every job once in block b's order; returns latencies in seconds."""
        order = list(range(len(self.jobs)))
        Random(f"poly-search/{self.seed}/{b}").shuffle(order)
        clock = time.perf_counter
        lat = []
        for j in order:
            key, name, args = self.jobs[j]
            if tracer is not None:
                tracer.request_id += 1
            t0 = clock()
            try:
                result = getattr(self.as90, name)(*args)
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                result = exc
            lat.append(clock() - t0)
            text = (f"error {type(result).__name__}: {result}"
                    if isinstance(result, Exception) else render(key, result))
            seen = self.answers.setdefault(j, {})
            seen.setdefault(text, [result, 0])[1] += 1
        return lat

    def digest_source(self) -> list[str]:
        return [f"{self.jobs[j][0]} -> {sorted(seen)}" for j, seen in sorted(self.answers.items())]

    def verify(self) -> int:
        """Stored answers for fixed jobs, invariants for all, one answer per
        job; returns the number of failed operations."""
        stored = json.loads(EXPECTED.read_text())
        failed = 0
        for j, seen in self.answers.items():
            key, _, args = self.jobs[j]
            for text, (result, count) in seen.items():
                ok = (len(seen) == 1 and not isinstance(result, Exception)
                      and invariant(key, args, result)
                      and (key.startswith("seeded") or stored.get(key) == text))
                if not ok:
                    failed += count
        return failed


def record() -> None:
    """Store the answers of the fixed jobs, after checking their invariants."""
    import as90

    _, jobs = timed_setup(0)
    stored = {}
    for key, name, args in jobs:
        if key.startswith("seeded"):
            continue
        result = getattr(as90, name)(*args)
        if not invariant(key, args, result):
            raise harness.BenchError(f"{key}: answer breaks its invariant")
        stored[key] = render(key, result)
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
