"""The experiment scripts run end to end at their smallest sizes, each in a
fresh interpreter with the package on ``PYTHONPATH=src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (test id, script, arguments, a line the report must contain)
SCRIPTS = [
    ("abhyankar_scan.py", "abhyankar_scan.py", ["--q", "3", "--max-deg", "3"], "primes scanned : 14"),
    ("cm_density.py", "cm_density.py", ["--q", "3", "--max-deg", "1"], "deg  primes"),
    ("noncm_estimate.py", "noncm_estimate.py", ["--q", "3", "--max-deg", "1"], "partial sum"),
    ("linalg_bench.py", "linalg_bench.py", ["--mix", "sample-r2-q3-largefield", "--repeats", "1"],
     "RowSpace.contains"),
    ("linalg_bench.py-lattice", "linalg_bench.py", ["--mix", "lattice-deg12-free", "--repeats", "1"],
     "lattice-deg12-free"),
    ("field_bench.py", "field_bench.py", ["--ops", "1", "--repeats", "1"], "project"),
    ("record_bench.py", "record_bench.py", ["--q", "3", "--deg", "1", "--passes", "1"],
     "structure oracle"),
    # every rank-2 record takes b_p from gcd(d, d'), and the motive gcd where d is not squarefree
    ("record_bench.py-rank2-q5", "record_bench.py", ["--q", "5", "--deg", "1,2,3", "--passes", "1"],
     "b route"),
    # each degree runs as one chunk, so its primes take the stacked Weil batch
    ("record_bench.py-weil-batch", "record_bench.py", ["--q", "5", "--deg", "1,2", "--passes", "1"],
     "Weil batch"),
    # every pass rebuilds the root tables, so the stage shows in the least of two
    ("record_bench.py-root-table", "record_bench.py", ["--q", "5", "--deg", "1,2", "--passes", "2"],
     "root table"),
    # T^2+1 divides g_2, so its record takes Rabin's test before it is skipped
    ("record_bench.py-prime-test", "record_bench.py",
     ["--q", "3", "--psi", "T+1*t+(T^2+1)*t^2", "--deg", "2", "--passes", "1"], "prime test"),
    ("record_bench.py-rank3", "record_bench.py",
     ["--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "1", "--passes", "1"], "motive invariants"),
    # rank 4 at q = 3 reads the size-3 principal minors of Pi, and its b's
    # (1, 1, T+2) at degree 2 take the Smith form
    ("record_bench.py-rank4", "record_bench.py",
     ["--q", "3", "--psi", "T+1*t+T*t^2+1*t^3+1*t^4", "--deg", "1,2", "--passes", "1"],
     "motive invariants"),
    ("poly_bench.py", "poly_bench.py",
     ["--q", "3", "--max-order", "9", "--deg", "2", "--pairs", "2", "--repeats", "1"], "divmod"),
    ("record_bench.py-full-checks", "record_bench.py",
     ["--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "1", "--passes", "1", "--full-checks"],
     "endomorphism lattice"),
]


@pytest.mark.parametrize("script,args,marker", [s[1:] for s in SCRIPTS], ids=[s[0] for s in SCRIPTS])
def test_script_runs(script, args, marker):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
    assert len(proc.stdout.splitlines()) >= 3
