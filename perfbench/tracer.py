"""Layer tracer for the drinfeld benchmark.

The tracer wraps public functions of the ``drinfeld`` modules from outside the
package.  Each call of a timed target becomes a span (name, start, end, parent
span, request id); each call of a counted target only bumps a counter.  A
function imported elsewhere with ``from .polys import powmod`` is bound under
its name in several module namespaces, so every ``drinfeld`` module namespace
that holds the original object is rebound, and methods are patched on their
classes.  ``uninstall`` puts every original object back.

Spans stay in memory (flat arrays) until the run ends; ``write_spans`` writes
them out and ``summary`` turns them into per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

# (metric name, drinfeld module, attribute path).  The layer is the part of
# the metric name before the first dot.
TIMED = (
    ("polys.powmod", "polys", "powmod"),
    ("polys.is_irreducible", "polys", "is_irreducible"),
    ("polys.factorize", "polys", "factorize"),
    ("polys.roots_in_field", "polys", "roots_in_field"),
    ("polys.enumerate_monic_irreducibles", "polys", "enumerate_monic_irreducibles"),
    ("modules.reduce_at", "modules", "reduce_at"),
    ("modules.good_reduction_at", "modules", "good_reduction_at"),
    ("modules.ResidueField", "modules", "ResidueField.__init__"),
    ("fields.field", "fields", "FieldTower.field"),
    ("fields.embedding", "fields", "FieldTower.embedding"),
    ("fields.frobenius_power", "fields", "FieldTower.frobenius_power"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.matpow", "linalg", "matpow"),
    ("torsion.torsion_basis_reduced", "torsion", "torsion_basis_reduced"),
    ("torsion.module_structure_oracle", "torsion", "module_structure_oracle"),
    ("invariants.weil_rank2_reduced", "invariants", "weil_rank2_reduced"),
    ("invariants.rank2_invariants_reduced", "invariants", "rank2_invariants_reduced"),
    ("invariants.weil_identity_holds", "invariants", "weil_identity_holds"),
    ("invariants.weil_general", "invariants", "weil_general"),
    ("invariants.end_lattice_reduced", "invariants", "end_lattice_reduced"),
    ("skew.mul", "skew", "SkewPoly.__mul__"),
    ("skew.skew_right_divmod", "skew", "skew_right_divmod"),
    ("division.module_structure", "division", "module_structure"),
    ("division.abhyankar_splits_mod", "division", "abhyankar_splits_mod"),
    ("amatrix.smith_normal_form", "amatrix", "smith_normal_form"),
    ("amatrix.charpoly", "amatrix", "charpoly"),
    ("survey.compute_record", "survey", "compute_record"),
)

# Element operations run about a million times per survey: a span each would
# dwarf the work they do, so they are only counted.
COUNTED = (
    ("fields.elem_mul", "fields", "FFElem.__mul__"),
    ("fields.elem_inv", "fields", "FFElem.inv"),
)

# Span flags.  OUTER: no span of the same target encloses it, so its duration
# counts once in the target's inclusive time.  FIRST: the span starts a call
# (a generator call gives one span per resume).
OUTER = 1
FIRST = 2

# The root span of one record; its prime argument is the request id.
ROOT = "survey.compute_record"

LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name, _, _ in TIMED))

WASTE_METRICS = (
    ("modules.reduce_at.per_record", "1/record"),
    ("polys.is_irreducible.per_record", "1/record"),
    ("fields.field.created", "count"),
    ("fields.field.max_degree", "degree"),
    ("torsion.splitting_s.max", "degree"),
)


def metric_units() -> dict[str, str]:
    """The per-layer metrics of the JSON result, with their units.

    ``summary`` also reports each target's ``.total_s`` and ``.self_s``; they
    stay out of the result because a target that a workload never calls
    would report a time of exactly 0 on every run.  The layer self times
    cover them, and ``run.py`` prints them in its table.
    """
    units = {f"{name}.calls": "count" for name, _, _ in TIMED + COUNTED}
    for layer in LAYERS + ("other",):
        units[f"{layer}.self_s"] = "s"
    units.update(WASTE_METRICS)
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def resolve(module: str, path: str):
    """(owner, attribute, original) for a target; owner is a class for methods."""
    owner = importlib.import_module(f"drinfeld.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are numbered in order of their start, so a parent's children come
    in start order and their covered intervals merge in one pass.
    """
    n = len(starts)
    out = [ends[i] - starts[i] for i in range(n)]
    cover_end = list(starts)  # per parent: end of the covered prefix so far
    for i in range(n):
        par = parents[i]
        if par < 0:
            continue
        lo = max(starts[i], cover_end[par])
        hi = min(ends[i], ends[par])
        if hi > lo:
            out[par] -= hi - lo
            cover_end[par] = hi
    return out


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds the tracer adds to one timed call (a span) and to one counted
    call: a wrapped no-op against the bare one, median of ``repeats``."""

    def noop():
        pass

    def per_call(fn) -> float:
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - t0) / calls

    probe = Tracer()
    timed = probe._timed(0, "calibration", noop)
    counted = probe._counted(0, noop)
    span, count = [], []
    for _ in range(repeats):
        bare = per_call(noop)
        span.append(per_call(timed) - bare)
        count.append(per_call(counted) - bare)
    return max(statistics.median(span), 0.0), max(statistics.median(count), 0.0)


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.names = [name for name, _, _ in TIMED]
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.kinds = array("H")
        self.flags = array("b")  # OUTER | FIRST bits per span
        self.reqs = array("q")
        self.requests: list = []  # request id -> prime polynomial
        self.counts = [0] * len(COUNTED)
        self.splitting_s_max = 0
        self._stack: list[int] = []
        self._active = [0] * len(TIMED)
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for idx, (name, module, path) in enumerate(TIMED):
            owner, attr, original = resolve(module, path)
            self._patch(owner, attr, original, self._timed(idx, name, original))
        for idx, (_, module, path) in enumerate(COUNTED):
            owner, attr, original = resolve(module, path)
            self._patch(owner, attr, original, self._counted(idx, original))

    def _patch(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "drinfeld" or mod_name.startswith("drinfeld.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for obj, key in targets:
            setattr(obj, key, wrapper)
            self._patches.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------------

    def _timed(self, idx: int, name: str, fn):
        starts, ends, parents = self.starts, self.ends, self.parents
        kinds, flags, reqs = self.kinds, self.flags, self.reqs
        stack, active = self._stack, self._active
        is_root = name == ROOT
        observe = self._see_torsion if name == "torsion.torsion_basis_reduced" else None

        def open_span(first: bool) -> int:
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            kinds.append(idx)
            flags.append((OUTER if active[idx] == 0 else 0) | (FIRST if first else 0))
            reqs.append(self._request)
            ends.append(0.0)
            stack.append(sid)
            active[idx] += 1
            starts.append(perf_counter())
            return sid

        def close_span(sid: int):
            ends[sid] = perf_counter()
            active[idx] -= 1
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's work between items is
            # not charged to the generator; the first resume counts the call.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    sid = open_span(first)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(sid)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if is_root:
                saved = self._request
                self._request = len(self.requests)
                self.requests.append(args[1])
            sid = open_span(True)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(sid)
                if is_root:
                    self._request = saved
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counted(self, idx: int, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _see_torsion(self, args, basis):
        self.splitting_s_max = max(self.splitting_s_max, basis.splitting_s)

    # -- results ------------------------------------------------------------------

    def summary(self, wall_s: float, tower) -> dict[str, float]:
        """Per-target calls, inclusive and self time; per-layer self time with
        ``other`` = wall time outside every span; the waste counters, with the
        field counts read from the registry of the pass's ``tower``; and the
        tracer's estimated cost."""
        selfs = self_times(self.starts, self.ends, self.parents)
        n_kinds = len(TIMED)
        calls = [0] * n_kinds
        total = [0.0] * n_kinds
        self_s = [0.0] * n_kinds
        for i, k in enumerate(self.kinds):
            flag = self.flags[i]
            if flag & FIRST:
                calls[k] += 1
            if flag & OUTER:
                total[k] += self.ends[i] - self.starts[i]
            self_s[k] += selfs[i]
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.total_s"] = total[k]
            out[f"{name}.self_s"] = self_s[k]
            layer_self[name.split(".", 1)[0]] += self_s[k]
        for (name, _, _), count in zip(COUNTED, self.counts):
            out[f"{name}.calls"] = count
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        out["other.self_s"] = wall_s - sum(layer_self.values())
        records = max(calls[self.names.index(ROOT)], 1)
        out["modules.reduce_at.per_record"] = calls[self.names.index("modules.reduce_at")] / records
        out["polys.is_irreducible.per_record"] = (
            calls[self.names.index("polys.is_irreducible")] / records
        )
        out["fields.field.created"] = len(tower._fields) - 1  # not the base field
        out["fields.field.max_degree"] = max(tower._fields)
        out["torsion.splitting_s.max"] = self.splitting_s_max
        out["trace.wall_s"] = wall_s
        span_s, count_s = wrapper_costs()
        out["trace.overhead_s"] = span_s * len(self.starts) + count_s * sum(self.counts)
        return out

    def write_spans(self, path, prime_text) -> None:
        """One JSON line per span: id, parent, name, start, end, request (the
        record's prime as text, or null outside a record)."""
        texts = [prime_text(p) for p in self.requests]
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                req = self.reqs[i]
                fh.write(
                    json.dumps(
                        [
                            i,
                            self.parents[i],
                            self.names[self.kinds[i]],
                            round(self.starts[i] - t0, 7),
                            round(self.ends[i] - t0, 7),
                            texts[req] if req >= 0 else None,
                        ]
                    )
                )
                fh.write("\n")
