"""Time polynomial products, division and gcds over table fields, by the
coefficient loops and by coordinate arrays.

    PYTHONPATH=src python scripts/poly_bench.py [--q Q,...] [--max-order N] [--deg D,...]
                                                [--pairs N] [--repeats N] [--seed S]

For each q and each field F_(q^k) of the tower with at most ``--max-order``
elements (all of them table fields at the default 2^10), and for each
degree d, the script draws ``--pairs`` pairs of random polynomials over the
field from a generator seeded by ``--seed``, a of degree 2d and b of degree
d, and times three operations two ways:

- ``mul``: a*b by ``polys.schoolbook_mul``, and by ``_FieldCtx.poly_mul``;
- ``divmod``: a divided by b by ``polys.schoolbook_divmod``, and by
  ``_FieldCtx.poly_divmod``;
- ``gcd``: the monic gcd(a, b) by ``polys.schoolbook_gcd``, and by
  ``_FieldCtx.poly_gcd``.

The loops work on ``FFElem`` coefficients, which on a table field are
discrete-log lookups; the arrays work on prime coordinates, and their time
includes the conversion of the operands to arrays and of the result back to
a ``Poly``, as a ``Poly`` method on arrays would pay it.  Both routes must
give the same result.  The script prints the microseconds per operation
for each route, the least over ``--repeats`` passes, and loops / arrays:
above 1 the arrays win.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter

from drinfeld.fields import TABLE_LIMIT, FieldTower
from drinfeld.polys import Poly, schoolbook_divmod, schoolbook_gcd, schoolbook_mul


def random_poly(F, deg: int, rng: random.Random) -> Poly:
    """A polynomial of degree exactly ``deg`` with uniform coefficients."""
    return Poly(F, [F.dec_elem(rng.randrange(F.order)) for _ in range(deg)]
                + [F.dec_elem(rng.randrange(1, F.order))])


def on_arrays(F, op: str, a: Poly, b: Poly):
    x, y = F.coeff_array(a.coeffs), F.coeff_array(b.coeffs)
    if op == "mul":
        return Poly(F, F.array_elems(F.poly_mul(x, y)))
    if op == "divmod":
        q, r = F.poly_divmod(x, y)
        return Poly(F, F.array_elems(q)), Poly(F, F.array_elems(r))
    return Poly(F, F.array_elems(F.poly_gcd(x, y)))


LOOPS = {"mul": schoolbook_mul, "divmod": schoolbook_divmod, "gcd": schoolbook_gcd}


def best_us(f, pairs, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in pairs:
            f(a, b)
        best = min(best, perf_counter() - t0)
    return best / len(pairs) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--q", type=str, default="2,3,5", help="comma-separated prime q")
    ap.add_argument("--max-order", type=int, default=2**10)
    ap.add_argument("--deg", type=str, default="2,5,9,10,18", help="comma-separated degrees of b")
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.max_order > TABLE_LIMIT:
        ap.error(f"--max-order above the table limit {TABLE_LIMIT}")
    print(f"{'field':8s} {'deg':>4s} {'op':>7s} {'loops us':>10s} {'arrays us':>10s} {'loops/arrays':>13s}")
    for q in (int(x) for x in args.q.split(",")):
        tower = FieldTower(q)
        k = 1
        while q**k <= args.max_order:
            F = tower.field(k)
            rng = random.Random(args.seed)
            for d in (int(x) for x in args.deg.split(",")):
                pairs = [(random_poly(F, 2 * d, rng), random_poly(F, d, rng)) for _ in range(args.pairs)]
                for op, loop in LOOPS.items():
                    for a, b in pairs[:3]:
                        if loop(a, b) != on_arrays(F, op, a, b):
                            raise AssertionError(f"{op} differs between the routes over F_{q}^{k}")
                    us_loops = best_us(loop, pairs, args.repeats)
                    us_arrays = best_us(lambda a, b: on_arrays(F, op, a, b), pairs, args.repeats)
                    print(f"{f'F{q}^{k}':8s} {d:4d} {op:>7s} {us_loops:10.1f} {us_arrays:10.1f} "
                          f"{us_loops / us_arrays:13.2f}")
            k += 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
