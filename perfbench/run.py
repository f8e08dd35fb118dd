"""Benchmark of whole drinfeld surveys, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in a fresh Python process (``one_pass.py``), as one CLI call
would.  With ``--trace 0`` the run repeats untraced passes while another one
fits in ``--seconds`` (at least one), adds SETUP_PROBES set-up-only
processes, and reports the end-to-end metrics, timed on the host clock of
``hostclock.py``.  With ``--trace 1`` it runs one traced pass and reports the
per-layer metrics, the kernel unit costs and the tracer's cost.  Every record
is checked; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from kernels import REPEATS, UNITS as KERNEL_UNITS  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"records_per_s": "1/s", "record_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Figures printed in the table only; any other table-only figure is in s.
TABLE_UNITS = {"wall.records_per_s": "1/s", "host.speed": "share"}


def layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    return {**metric_units(), **KERNEL_UNITS}


class BenchError(Exception):
    pass


def child(workload: str, mode: str, deadline: float) -> dict:
    """Run one_pass.py in a fresh process and return its JSON summary."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the next process")
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args, deadline: float) -> tuple[dict, list]:
    """End-to-end metrics as {name: (value, sample description)}, and the
    passes.  Times are read from the host clock; the wall-clock figures and
    the host's speed are added for the table."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(child(args.workload, "pass", deadline))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    probes = [child(args.workload, "setup", deadline) for _ in range(SETUP_PROBES)]
    setups += [p["setup_s"] for p in probes]
    record_s = [t for p in passes for t in p["record_s"]]
    records = len(record_s)
    wall = sum(p["wall_s"] for p in passes)
    values = {
        "records_per_s": (records / wall, f"{records} records in {len(passes)} passes"),
        "record_s_p50": (statistics.median(record_s), f"{records} records"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), f"{len(passes)} passes"),
        "setup_s": (statistics.median(setups), f"{len(setups)} processes"),
        "wall.records_per_s": (records / sum(p["raw_wall_s"] for p in passes), "wall clock, probes included"),
        "host.speed": (statistics.median(p["speed"] for p in passes + probes), "share of the reference speed"),
    }
    return values, passes


def traced(args, deadline: float) -> tuple[dict, list]:
    """Per-layer metrics as {name: (value, sample description)}, and the passes."""
    trace = child(args.workload, "trace", deadline)
    values = {name: (value, "1 traced pass") for name, value in trace["layers"].items()}
    values.update((name, (value, f"median of {REPEATS} repeats")) for name, value in trace["kernels"].items())
    values["trace.overhead_s"] = (trace["layers"]["trace.overhead_s"], "cost per wrapped call x calls")
    print(f"spans written to {trace['spans_file']}")
    return values, [trace]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # No workload depends on the seed: surveys run every prime of their
    # degrees and the sampling workload has a fixed sample (workloads.py).
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "drinfeld" / "__init__.py").is_file():
        print(f"no drinfeld sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        values, passes = (traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = layer_units() if args.trace else END_TO_END_UNITS
    for name, (value, samples) in values.items():
        note = samples if name in units else f"{samples}, table only"
        unit = units.get(name) or TABLE_UNITS.get(name, "s")
        print(f"{name:44s} {value:14.6g} {unit:9s} {note}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} {'':9s} {failed}/{attempted} records")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
