"""Unit costs of single kernels on fixed inputs, timed with no tracer installed.

The element multiplies use the two fields the workloads stress: F_{5^4}
(log/exp tables) and F_{3^12} (numpy convolution, above the 2^14 table
limit).  The other kernels take their sizes from the workload: the prime is
the first monic irreducible of the workload's top degree d, its residue field
is F_{q^d}, and the matrices have the size q^r * d * e of a torsion matrix
for a degree-1 auxiliary modulus.  Random inputs come from a fixed seed, so
every run times the same inputs.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import numpy as np

REPEATS = 5
MIN_REPEAT_S = 0.04

UNITS = {
    "fields.mul_table.us": "us",
    "fields.mul_large.us": "us",
    "polys.powmod.ms": "ms",
    "skew.right_divmod.ms": "ms",
    "linalg.rref.ms": "ms",
    "linalg.matpow.ms": "ms",
}


def per_call_s(fn) -> float:
    """Median over REPEATS of the mean time of one call, each repeat running
    enough calls to last at least MIN_REPEAT_S."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= MIN_REPEAT_S:
            break
        n *= 2
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def _elem_mul_us(q: int, degree: int) -> float:
    from drinfeld.fields import FieldTower

    ctx = FieldTower(q).field(degree)
    rng = random.Random(0)
    pairs = [
        (ctx.dec_elem(rng.randrange(1, ctx.order)), ctx.dec_elem(rng.randrange(1, ctx.order)))
        for _ in range(256)
    ]

    def body():
        for a, b in pairs:
            a * b

    return per_call_s(body) / len(pairs) * 1e6


def kernel_costs(spec) -> dict[str, float]:
    from drinfeld import linalg
    from drinfeld.fields import FieldTower
    from drinfeld.modules import reduce_at
    from drinfeld.polys import Poly, enumerate_monic_irreducibles, powmod
    from drinfeld.skew import skew_right_divmod
    from drinfeld.textio import module_from_text

    out = {
        "fields.mul_table.us": _elem_mul_us(5, 4),
        "fields.mul_large.us": _elem_mul_us(3, 12),
    }
    tower = FieldTower(spec.q, max_degree=spec.max_degree)
    psi = module_from_text(spec.psi, tower)
    d = max(spec.degrees)
    p = next(enumerate_monic_irreducibles(tower.base_field, d))
    red = reduce_at(psi, p)
    ctx = red.ctx
    p_res = Poly(ctx, [tower.embed(c, ctx) for c in p.coeffs])
    x = Poly.x(ctx)
    out["polys.powmod.ms"] = per_call_s(lambda: powmod(x, ctx.order, p_res)) * 1e3

    f = red.psibar_of(p)
    g = red.psibar_T
    out["skew.right_divmod.ms"] = per_call_s(lambda: skew_right_divmod(f, g)) * 1e3

    char = tower.char
    n = spec.q**spec.rank * d * tower.base_degree
    m = np.random.default_rng(0).integers(0, char, size=(n, n), dtype=np.int64)
    out["linalg.rref.ms"] = per_call_s(lambda: linalg.rref(m, char)) * 1e3
    out["linalg.matpow.ms"] = per_call_s(lambda: linalg.matpow(m, d, char)) * 1e3
    return out
