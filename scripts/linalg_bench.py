"""Time the prime-field linear-algebra kernel on the shapes the surveys use.

    PYTHONPATH=src python scripts/linalg_bench.py [--mix NAME] [--repeats N] [--seed S]

Each mix is a fixed list of matrix shapes with their counts per pass, as
recorded by a spy on ``linalg.rref`` over one pass of the benchmark workload
of the same name (``rref`` calls, including those inside ``solve`` and
``nullspace``).  The ``lattice-deg12`` mixes hold the largest shapes of the
rank-3 endomorphism lattice at q = 2, degree 12, one each:

- ``lattice-deg12-free``: the final solve, on the free blocks e_0, e_n,
  e_2n, ... of the span columns and the targets: a 48 x 30 system and its 5
  targets, one 48 x 35 ``rref``;
- ``lattice-deg12-wide``: the canonical basis of the commutant solutions
  at the largest window.

Matrices are uniform random mod p
from a generator seeded by ``--seed``.  For every matrix m of shape
rows x cols the script times

- ``rref(m)``, ``nullspace(m)``;
- ``solve`` of the first cols-1 columns against the last one;
- ``RowSpace(cols).add`` of each row of m, then ``contains`` of as many
  random vectors.

It prints, per mix and operation, the calls per pass and the microseconds
per call: the least over ``--repeats`` passes.  It only imports
``drinfeld.linalg``, so the same script times any checkout whose
``src/`` is put on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
from time import perf_counter

import numpy as np

from drinfeld import linalg

# mix -> (p, [(rows, cols, count per pass)])
MIXES = {
    "survey-r3-q2-torsion": (2, [
        (5, 5, 14), (1, 2, 13), (5, 10, 8), (4, 4, 6), (5, 6, 6), (30, 20, 6),
        (14, 90, 4), (25, 22, 4), (4, 5, 3), (4, 8, 3), (14, 68, 3), (20, 19, 3),
        (28, 20, 3), (3, 4, 2), (3, 6, 2), (3, 10, 2), (4, 13, 2), (5, 15, 2),
        (5, 16, 2), (6, 10, 2), (14, 14, 2), (15, 17, 2), (15, 90, 2), (16, 14, 2),
        (16, 48, 2), (24, 18, 2), (2, 3, 1), (2, 4, 1), (4, 9, 1), (5, 11, 1),
        (10, 13, 1), (14, 30, 1), (20, 16, 1),
    ]),
    "survey-r2-q5-abhyankar": (5, [
        (4, 5, 150), (4, 8, 150), (3, 4, 40), (3, 6, 40), (4, 13, 30), (1, 2, 19),
        (2, 3, 10), (2, 4, 10), (4, 4, 8), (4, 9, 6),
    ]),
    "sample-r2-q3-largefield": (3, [
        (1, 2, 46), (13, 14, 36), (11, 12, 34), (10, 11, 31), (12, 13, 24),
        (14, 15, 18), (12, 12, 9), (14, 14, 7), (10, 20, 4), (11, 22, 4), (12, 24, 4),
        (13, 26, 4), (14, 28, 4), (11, 11, 2), (11, 23, 2), (1, 10, 1), (1, 11, 1),
        (1, 12, 1), (1, 13, 1), (1, 14, 1), (10, 21, 1), (10, 31, 1), (11, 31, 1),
        (12, 25, 1), (12, 35, 1), (12, 37, 1), (13, 39, 1), (13, 40, 1), (14, 42, 1),
        (14, 43, 1),
    ]),
    "lattice-deg12-free": (2, [(48, 35, 1)]),
    "lattice-deg12-wide": (2, [(18, 300, 1)]),
}

OPS = ("rref", "solve", "nullspace", "RowSpace.add", "RowSpace.contains")


def matrices(mix: str, seed: int) -> tuple[int, list[np.ndarray]]:
    p, shapes = MIXES[mix]
    rng = np.random.default_rng(seed)
    mats = [rng.integers(0, p, size=(r, c), dtype=np.int64) for r, c, n in shapes for _ in range(n)]
    return p, mats


def one_pass(p: int, mats: list[np.ndarray], probes: list[np.ndarray]) -> dict[str, list]:
    """{op: [seconds, calls]} for one pass over the mix."""
    out = {op: [0.0, 0] for op in OPS}

    def timed(op, f, *args):
        t0 = perf_counter()
        res = f(*args)
        out[op][0] += perf_counter() - t0
        out[op][1] += 1
        return res

    for m, probe in zip(mats, probes):
        timed("rref", linalg.rref, m, p)
        timed("nullspace", linalg.nullspace, m, p)
        timed("solve", linalg.solve, m[:, :-1], m[:, -1], p)
        space = linalg.RowSpace(m.shape[1], p)
        for v in m:
            timed("RowSpace.add", space.add, v)
        for v in probe:
            timed("RowSpace.contains", space.contains, v)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mix", choices=[*MIXES, "all"], default="all")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    mixes = list(MIXES) if args.mix == "all" else [args.mix]
    print(f"{'mix':26s} {'op':18s} {'calls':>6s} {'us/call':>10s}")
    for mix in mixes:
        p, mats = matrices(mix, args.seed)
        rng = np.random.default_rng(args.seed + 1)
        probes = [rng.integers(0, p, size=m.shape, dtype=np.int64) for m in mats]
        best: dict[str, list] = {}
        for _ in range(args.repeats):
            for op, (s, n) in one_pass(p, mats, probes).items():
                if op not in best or s < best[op][0]:
                    best[op] = [s, n]
        for op in OPS:
            s, n = best[op]
            print(f"{mix:26s} {op:18s} {n:6d} {s / n * 1e6:10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
