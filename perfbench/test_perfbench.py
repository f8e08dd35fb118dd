"""Tests of the benchmark itself: span arithmetic, the fixed sample, the host
clock, and that the tracer leaves the package as it found it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import COUNTED, LAYERS, TIMED, Tracer, resolve, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, run_pass, setup  # noqa: E402

# Small enough to run in about a second, and it reaches every rank-2 layer.
TINY = Workload(3, "T+1*t+1*t^2", (1, 2), 64)


def bindings() -> dict[tuple[str, str], object]:
    """Every place a tracer target is reachable from: module globals holding
    a target function, and the class attributes of target methods."""
    originals = {id(resolve(m, p)[2]) for _, m, p in TIMED + COUNTED}
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "drinfeld" or mod_name.startswith("drinfeld."):
            for key, value in vars(mod).items():
                if id(value) in originals:
                    out[(mod_name, key)] = value
    for _, module, path in TIMED + COUNTED:
        owner, attr, _ = resolve(module, path)
        if isinstance(owner, type):
            out[(owner.__qualname__, attr)] = owner.__dict__[attr]
    return out


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_clip_overlapping_children():
    # children [1, 5] and [3, 12] overlap each other and the parent's end
    assert self_times([0.0, 1.0, 3.0], [10.0, 5.0, 12.0], [-1, 0, 0]) == [1.0, 4.0, 9.0]


def test_sample_is_fixed():
    spec = WORKLOADS["sample-r2-q3-largefield"]
    first = [p.coeffs for p in setup(spec).primes]
    assert first == [p.coeffs for p in setup(spec).primes]
    assert len(set(first)) == len(spec.degrees) * spec.per_degree
    assert [len(c) - 1 for c in first] == sorted(len(c) - 1 for c in first)


def test_host_clock_leaves_out_its_probes():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    clock.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
        reading = clock.now()
    finally:
        clock.stop()
    assert len(clock.probes) >= 5
    # the busy loop ran for 0.5 s of wall time minus the probes' own time,
    # and the reading is that time scaled by the host's speed
    busy = 0.5 - sum(clock.probes[1:])
    assert 0.2 * busy < reading < 5 * busy
    assert clock.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before


def test_untraced_pass_keeps_the_original_objects():
    before = bindings()
    assert ("drinfeld.polys", "powmod") in before
    assert ("drinfeld.modules", "is_irreducible") in before
    run_pass(TINY, setup(TINY))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_accounts_for_the_wall_time_and_uninstalls():
    before = bindings()
    state = setup(TINY)
    tracer = Tracer()
    tracer.install()
    try:
        import drinfeld.polys

        assert drinfeld.polys.powmod is not before[("drinfeld.polys", "powmod")]
        result = run_pass(TINY, state)
    finally:
        tracer.uninstall()
    assert all(v is before[k] for k, v in bindings().items())
    m = tracer.summary(result.wall_s, state.tower)
    assert m["survey.compute_record.calls"] == len(result.records)
    assert m["modules.reduce_at.calls"] > 0
    assert m["fields.elem_mul.calls"] > 0
    # the root spans do not overlap, lie inside the pass, and their self
    # times and those of their descendants add up to their durations
    roots = sorted(
        (tracer.starts[i], tracer.ends[i]) for i, par in enumerate(tracer.parents) if par < 0
    )
    assert all(prev[1] <= nxt[0] for prev, nxt in zip(roots, roots[1:]))
    covered = sum(end - start for start, end in roots)
    assert covered <= result.wall_s
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_sum == pytest.approx(covered)
    assert m["other.self_s"] >= 0
    assert m["trace.overhead_s"] > 0
    for name, _, _ in TIMED:
        assert m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
