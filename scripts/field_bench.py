"""Time single-element operations of the tower fields.

    PYTHONPATH=src python scripts/field_bench.py [--field NAME] [--ops N] [--repeats N] [--seed S]

Each field comes from the tower of its own q and takes ``--ops`` nonzero
elements, uniform random from a generator seeded by ``--seed``.  For every
field the script times

- ``build``: the first ``FieldTower(q).field(d)`` of a fresh tower, which
  searches the lex-smallest modulus and, on a table field, builds the log
  tables; one measurement, in milliseconds, since the process keeps the
  modulus for later towers;
- ``mul``, ``add``: a*b and a+b over consecutive pairs;
- ``inv``: 1/a;
- ``frob``: ``frobenius_power(a, 1)``, the q-power;
- ``embed``: elements of the largest proper subfield into the field;
- ``project``: the embedded elements back to that subfield.

F_5 has no proper subfield, so its ``embed`` and ``project`` are not timed.
F_(5^4) and F_(2^14), the largest table field, compute in discrete logs;
F_(3^10) and F_(2^64) lie above ``TABLE_LIMIT`` and compute on coordinates.
The script prints the microseconds per element operation, the least over
``--repeats`` passes; on table fields the first pass also builds the log
lists and looks up the logs of the random elements.  It only calls the public
``FieldTower`` and ``FFElem`` surface, so the same script times any
checkout whose ``src/`` is put on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter

from drinfeld.fields import FieldTower

# name -> (q, degree over the prime field, degree of the subfield or None)
FIELDS = {
    "F5": (5, 1, None),
    "F5^4": (5, 4, 2),
    "F2^14": (2, 14, 7),
    "F3^10": (3, 10, 5),
    "F2^64": (2, 64, 32),
}
OPS = ("mul", "add", "inv", "frob", "embed", "project")


def build_ms(name: str) -> float:
    """Milliseconds for the field's first construction in a fresh tower."""
    q, d, _ = FIELDS[name]
    t0 = perf_counter()
    FieldTower(q).field(d)
    return (perf_counter() - t0) * 1e3


def operands(name: str, n: int, seed: int):
    """The tower, the field, n nonzero elements and n of the subfield."""
    q, d, d_sub = FIELDS[name]
    tower = FieldTower(q)
    ctx = tower.field(d)
    rng = random.Random(seed)
    xs = [ctx.dec_elem(rng.randrange(1, ctx.order)) for _ in range(n)]
    sub = tower.field(d_sub) if d_sub else None
    ys = [sub.dec_elem(rng.randrange(1, sub.order)) for _ in range(n)] if sub else []
    return tower, ctx, sub, xs, ys


def one_pass(tower, ctx, sub, xs, ys) -> dict[str, float]:
    """Seconds per operation for one pass over the operands."""
    out = {}

    def timed(op, f, args):
        t0 = perf_counter()
        res = [f(*a) for a in args]
        out[op] = (perf_counter() - t0) / len(args)
        return res

    pairs = list(zip(xs, xs[1:] + xs[:1]))
    timed("mul", lambda a, b: a * b, pairs)
    timed("add", lambda a, b: a + b, pairs)
    timed("inv", lambda a: a.inv(), [(a,) for a in xs])
    timed("frob", tower.frobenius_power, [(a, 1) for a in xs])
    if sub is not None:
        images = timed("embed", tower.embed, [(y, ctx) for y in ys])
        timed("project", tower.project, [(x, sub) for x in images])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--field", choices=[*FIELDS, "all"], default="all")
    ap.add_argument("--ops", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.ops < 1:
        ap.error("--ops and --repeats must be at least 1")
    names = list(FIELDS) if args.field == "all" else [args.field]
    print(f"{'field':8s} {'build':>8s} " + " ".join(f"{op:>8s}" for op in OPS) + "   (build ms, ops us)")
    for name in names:
        build = build_ms(name)
        setup = operands(name, args.ops, args.seed)
        best: dict[str, float] = {}
        for _ in range(args.repeats):
            for op, s in one_pass(*setup).items():
                best[op] = min(s, best.get(op, s))
        cells = [f"{best[op] * 1e6:8.2f}" if op in best else f"{'-':>8s}" for op in OPS]
        print(f"{name:8s} {build:8.2f} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
