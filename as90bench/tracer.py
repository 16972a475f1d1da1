"""Span tracer installed around as90 from the benchmark's own files.

``Tracer.install()`` replaces, in every loaded ``as90`` namespace, each
public function of the eight traced modules with a wrapper that records
a span (id, parent, request id, label, start, end), and does the same
for the arithmetic methods of ``FieldElem`` and ``PrimePoly``.
``uninstall()`` puts the originals back.  Nothing inside ``src/`` is
changed.

Spans stay in memory, in flat arrays, until ``write()``.  A span's self
time is its duration minus the durations of its direct children;
summing self time per module attributes every traced second once.

A few wrappers also probe cache state around the call, to count
misses and cold time (``make_ctx``, ``subfield_embed``, ``trace``),
accepted candidates (``is_irreducible``) and the constructor a root
came from (``artin_schreier.method.<name>.calls``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("cli", "artin_schreier", "hilbert90", "periodicity",
           "fields", "polys", "bigpoly", "intfactor")

METHODS = {
    ("fields", "FieldElem"): {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
                              "__radd__": "add", "inv": "inv", "__pow__": "pow"},
    ("polys", "PrimePoly"): {"__mul__": "mul", "__rmul__": "mul",
                             "__divmod__": "divmod", "pow_mod": "pow_mod"},
}

#: Root constructors whose result names the method that produced a root.
CONSTRUCTORS = ("factor_artin_schreier", "root_general", "root_coprime", "root_np_p",
                "root_via_prime_r", "root_p2mod3", "root_char2_table", "brute_force_roots")


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.parent = array("q")
        self.label = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request_id = 0
        self.counters: Counter = Counter()
        self.contexts: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label: str, fn, probe=None):
        lid = self._label_id(label)
        parent, lab, req, start, end = self.parent, self.label, self.request, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        before, after = probe if probe else (None, None)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            sid = len(lab)
            lab.append(lid)
            parent.append(stack[-1])
            req.append(tracer.request_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after:
                after(tracer, sid, state, args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every loaded as90 namespace; idempotent per tracer."""
        if self._patches:
            return
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "as90" or name.startswith("as90."))]
        probes = _probes()
        for short in MODULES:
            mod = sys.modules.get(f"as90.{short}")
            if mod is None:
                continue
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or not _is_function(obj, mod.__name__):
                    continue
                label = f"{short}.{name}"
                wrapper = self._wrap(label, obj, probes.get(label))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, attr, wrapper)
        for (short, cls_name), methods in METHODS.items():
            mod = sys.modules.get(f"as90.{short}")
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            for attr, op in methods.items():
                self._patch(cls, attr, self._wrap(f"{short}.{cls_name}.{op}", vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict:
        """Flat per-layer values of this process: ``<label>.{calls,total_s,self_s}``,
        the probe counters and ``as90.total_s``, the time inside outermost spans."""
        n = len(self.label)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent, lab = self.parent, self.label
        nested = Counter()  # (parent label, child label) -> direct calls
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                nested[(lab[p], lab[i])] += 1
        out: dict[str, float] = {}
        for label in self.labels:
            out[f"{label}.calls"] = 0
            out[f"{label}.total_s"] = 0.0
            out[f"{label}.self_s"] = 0.0
        labels = self.labels
        roots_s = 0.0
        for i in range(n):
            name = labels[lab[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur[i]
            out[f"{name}.self_s"] += dur[i] - child[i]
            if parent[i] < 0:
                roots_s += dur[i]
        out["as90.total_s"] = roots_s
        # candidates: trace evaluations inside the witness search (one per
        # scanned element, plus the closing check), irreducibility tests
        # inside the primitive search
        ids = self._label_ids
        fto, tr = ids.get("hilbert90.find_trace_one"), ids.get("fields.trace")
        fbp, irr = ids.get("bigpoly.find_big_primitive"), ids.get("polys.is_irreducible")
        out["hilbert90.find_trace_one.candidates"] = max(
            0, nested[(fto, tr)] - out.get("hilbert90.find_trace_one.calls", 0))
        out["bigpoly.find_big_primitive.candidates"] = nested[(fbp, irr)]
        for key, value in self.counters.items():
            out[key] = value
        out["fields.cache_entries"] = self.cache_entries()
        return out

    def cache_entries(self) -> int:
        """Entries held by as90's caches at this moment: per-context
        matrix/table caches of every context seen, the embedding cache,
        and the lru caches behind make_ctx and the table sequences."""
        fields = sys.modules.get("as90.fields")
        if fields is None:
            return 0
        total = len(fields._EMBED_CACHE) + fields._make_ctx_cached.cache_info().currsize
        for ctx in self.contexts.values():
            for value in ctx._cache.values():
                total += len(value) if isinstance(value, (dict, list)) else 1
        polys = sys.modules["as90.polys"]
        total += len(polys._DEFAULT_MODULUS_CACHE)
        asch = sys.modules.get("as90.artin_schreier")
        if asch is not None:
            seq = asch.table_exponent_sequence
            seq = seq if hasattr(seq, "cache_info") else seq.__wrapped__
            total += seq.cache_info().currsize + asch._table_ctx.cache_info().currsize
        return total

    def write(self, stem: Path, extra: dict | None = None) -> dict:
        """Write the spans (``<stem>.spans``: int64 parent, int64 label,
        int64 request, float64 start, float64 end, each a block of
        ``count`` values) and a JSON summary (``<stem>.json``) holding
        the label table, the aggregate and ``write_s``, the time this call
        took.  Returns the aggregate."""
        t0 = time.perf_counter()
        stem.parent.mkdir(parents=True, exist_ok=True)
        agg = self.aggregate()
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.parent, array("q", self.label), array("q", self.request),
                        self.start, self.end):
                arr.tofile(fh)
        summary = {"count": len(self.label), "labels": self.labels, "aggregate": agg}
        summary.update(extra or {})
        summary["write_s"] = time.perf_counter() - t0
        stem.with_suffix(".json").write_text(json.dumps(summary, sort_keys=True))
        return agg


def _is_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name or inspect.isclass(obj):
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def _probes() -> dict:
    """label -> (before(args) -> state, after(tracer, sid, state, args, result))."""
    fields = sys.modules["as90.fields"]

    def ctx_before(args):
        return fields._make_ctx_cached.cache_info().misses

    def ctx_after(tracer, sid, misses, args, ctx):
        tracer.contexts.setdefault(id(ctx), ctx)
        if fields._make_ctx_cached.cache_info().misses > misses:
            tracer.counters["fields.make_ctx.misses"] += 1

    def embed_before(args):
        return len(fields._EMBED_CACHE)

    def embed_after(tracer, sid, size, args, result):
        if len(fields._EMBED_CACHE) > size:
            tracer.counters["fields.subfield_embed.misses"] += 1
            tracer.counters["fields.subfield_embed.cold_s"] += tracer.end[sid] - tracer.start[sid]

    def trace_before(args):
        return len(args[0].ctx._cache.get("trace", ()))

    def trace_after(tracer, sid, size, args, result):
        if len(args[0].ctx._cache.get("trace", ())) > size:
            tracer.counters["fields.trace.misses"] += 1
            tracer.counters["fields.trace.cold_s"] += tracer.end[sid] - tracer.start[sid]

    def irreducible_after(tracer, sid, state, args, result):
        tracer.counters["polys.is_irreducible.accepted"] += bool(result)

    def method_after(tracer, sid, state, args, result):
        p = tracer.parent[sid]
        if p >= 0 and tracer.labels[tracer.label[p]].startswith("artin_schreier."):
            return  # counted at the outermost constructor
        if isinstance(result, list):
            name = "brute"
        else:
            name = getattr(result, "method", None) or getattr(result, "status", "unknown")
        tracer.counters[f"artin_schreier.method.{name}.calls"] += 1

    probes = {
        "fields.make_ctx": (ctx_before, ctx_after),
        "fields.subfield_embed": (embed_before, embed_after),
        "fields.trace": (trace_before, trace_after),
        "polys.is_irreducible": (None, irreducible_after),
    }
    for name in CONSTRUCTORS:
        probes[f"artin_schreier.{name}"] = (None, method_after)
    return probes


def derive(agg: dict) -> dict:
    """Add what cannot be summed across processes: ``<module>.self_s``
    and ``<module>.calls`` per module, and the accept ratios."""
    out = dict(agg)
    for short in MODULES:
        prefix = short + "."
        out[f"{short}.self_s"] = sum(v for k, v in agg.items()
                                     if k.startswith(prefix) and k.endswith(".self_s")
                                     and k.count(".") >= 2)
        out[f"{short}.calls"] = sum(v for k, v in agg.items()
                                    if k.startswith(prefix) and k.endswith(".calls")
                                    and ".method." not in k and k.count(".") >= 2)
    calls = agg.get("hilbert90.find_trace_one.calls", 0)
    candidates = agg.get("hilbert90.find_trace_one.candidates", 0)
    out["hilbert90.find_trace_one.accept_ratio"] = calls / candidates if candidates else 0.0
    calls = agg.get("polys.is_irreducible.calls", 0)
    accepted = agg.get("polys.is_irreducible.accepted", 0)
    out["polys.is_irreducible.accept_ratio"] = accepted / calls if calls else 0.0
    return out


def merge(aggregates: list[dict]) -> dict:
    """Sum aggregates from several processes (cold-cli children)."""
    out: dict[str, float] = {}
    for agg in aggregates:
        for key, value in agg.items():
            out[key] = out.get(key, 0) + value
    return out
