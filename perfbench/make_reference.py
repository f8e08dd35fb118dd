"""Write reference.json: per-record digests of each workload's JSON stream.

    python3 perfbench/make_reference.py

No stream depends on the seed: surveys run every prime of their degrees, and
the sampling workload's records are stored in degree order, whatever order a
seed computes them in.  Run it only on a commit whose output is known to be
right: the benchmark counts every record that differs from these digests as
failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, count_failed, line_digest, run_pass, setup  # noqa: E402


def digests(name: str) -> list[str]:
    spec = WORKLOADS[name]
    result = run_pass(spec, setup(spec))
    attempted, failed = count_failed(result, None)
    if failed:
        raise SystemExit(f"{name}: {failed}/{attempted} records fail their own checks")
    return [line_digest(line) for line in result.lines]


def main() -> int:
    refs = {}
    for name in WORKLOADS:
        refs[name] = digests(name)
        print(name, len(refs[name]), file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
