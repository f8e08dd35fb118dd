"""One process of the benchmark: set up a workload, optionally run one pass.

    python3 perfbench/one_pass.py --workload NAME --mode setup|pass|trace

``setup`` only times the set-up; ``pass`` also runs one untraced pass and
checks its records, timing both on the host clock (``hostclock.py``);
``trace`` runs one pass under the layer tracer, writes the spans to
``.perfbench/`` and then times the kernels with the tracer removed.  The
last line of standard output is a JSON summary that ``run.py`` reads.  The
package is imported from ``src/`` of the checkout this file sits in, never
from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from hostclock import HostClock  # noqa: E402
from workloads import WORKLOADS, count_failed, run_pass, setup  # noqa: E402


def reference_for(name: str) -> list[str]:
    """Per-record digests of the workload's stream."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    # Untraced processes time on the host clock; the traced pass keeps to
    # perf_counter, the clock of its spans.
    clock = HostClock() if args.mode != "trace" else None
    now = perf_counter
    out: dict = {}
    if clock is not None:
        clock.start()
        now = clock.now
    try:
        t0 = now()
        import drinfeld

        state = setup(spec)
        out["setup_s"] = now() - t0
        if Path(drinfeld.__file__).resolve().parent != SRC / "drinfeld":
            print(f"drinfeld was imported from {drinfeld.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        if args.mode == "pass":
            t0 = perf_counter()
            result = run_pass(spec, state, now)
            out["raw_wall_s"] = perf_counter() - t0
        elif args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                result = run_pass(spec, state, now)
            finally:
                tracer.uninstall()
    finally:
        if clock is not None:
            clock.stop()
            out["speed"] = clock.speed()
    if args.mode != "setup":
        attempted, failed = count_failed(result, reference_for(args.workload))
        out.update(
            wall_s=result.wall_s,
            record_s=result.record_s,
            attempted=attempted,
            failed=failed,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    if args.mode == "trace":
        from drinfeld.textio import poly_to_text
        from kernels import kernel_costs

        # after the pass, so the pass starts from the same caches as an
        # untraced one
        out["kernels"] = kernel_costs(spec)
        out["layers"] = tracer.summary(result.wall_s, state.tower)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans, poly_to_text)
        out["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
