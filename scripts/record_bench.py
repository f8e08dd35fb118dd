"""Time the stages of one survey record, ``survey.compute_record``.

    PYTHONPATH=src python scripts/record_bench.py [--q Q] [--psi PSI] [--deg D,...] [--passes N]
                                                  [--full-checks]

One pass runs ``compute_record`` with the default survey options (plus the
lattice checks under ``--full-checks``, as in a survey) on every prime of the
given degrees, for a module built afresh in the pass, so each pass builds its
residue fields as a survey does; the tower, and with it the
fields F_(q^n) and their log tables, is shared by the passes.  Each pass
drops the fields' root tables, so it builds them once per degree, as a
survey process does.  The stages are timed by plain wrappers put in place of
these functions in every ``drinfeld`` namespace that binds them:

- ``residue field``: ``modules.reduce_at`` (the residue field and the
  reduction).  Its T-image takes one of three routes: a lookup in the
  field's root table (table fields), x in the field's own modulus
  F_q[x]/(p) (prime q above the table limit, whose Frobenius matrix
  ``polys.frobenius_matrix`` is built here) or ``polys.lex_min_root``
  (q = p^e > p above the limit); -p_0 at degree 1;
- ``prime test``: ``polys.rabin_irreducible``, Rabin's first condition
  Q^d x = x plus Berlekamp's rank of Q - I on the q-power matrix Q, which
  certifies the own modulus of a residue field;
- ``root table``: ``fields.orbit_roots``, the one walk over the Frobenius
  orbits of F_(q^n) that builds that table, inside the first record of
  each degree;
- ``Weil route``: ``invariants.weil_motive``, which reads the Weil
  polynomial off the matrix Pi of pi on the Anderson motive at T = t;
- ``skew identity``: ``invariants.weil_identity_holds``, inside the route:
  P(pi) = 0 by one Horner pass in psibar_T over the T-degrees of the
  Weil coefficients, deg p left multiplications;
- ``rank-2 invariants``: ``invariants.rank2_invariants_reduced`` without
  the motive stages it calls, i.e. d = a_p^2 - 4 u_p p, the squarefree test
  of ``invariants.b_invariants`` and delta_p;
- ``module structure``: ``division.module_structure_reduced``, the closed
  form the oracle checks;
- ``structure oracle``: ``torsion.module_structure_oracle_reduced``;
- ``motive Frobenius``: ``modules.motive_frobenius``, Pi with entries in
  F_p[T], for torsion and the tests; it no longer runs on survey records.
  A reduction runs the recurrence whose windows are Pi, .., Pi^(r-1)
  (``modules.motive_recurrence``) once and caches it, so its time goes to
  the stage that asks first: on a survey record the Weil route;
- ``motive invariants``: ``invariants.motive_invariant_factors`` without the
  recurrence: in rank >= 3 the gcd of a few (r-1)-minors of the matrix of
  the recurrence's windows, which certifies trivial b's, and the Smith form
  of that matrix only where the certificate fails; in rank 2 the Smith
  form.  It runs on every record in rank >= 3, and in rank 2 only where
  d is not squarefree;
- ``endomorphism lattice``: ``invariants.end_lattice_reduced``, the b's
  second route, which only ``--full-checks`` reaches;
- ``Abhyankar``: ``division.abhyankar_splits_reduced``, whose split test
  counts the distinct roots of the reduced Abhyankar polynomial
  (``polys.splits_separably``) and, on a split prime, takes disc(P) from the
  Weil polynomial.

A stage's time excludes the stages it calls, and ``other`` is what is left
of the record.  Cached data goes to the stage that builds it first (the
blocks of psibar_T, for one, to the skew identity).  Every ``linalg.rref``
call, those made inside ``nullspace`` and ``solve`` included, every
``linalg.RowSpace.add`` call (the endomorphism lattice's incremental
elimination of its span) and every ``amatrix.smith_normal_form`` call (so
the share of rank-3 records the minors certify shows) is counted for the
innermost stage open at the call.  The script prints, per stage, the
microseconds per record, its share of the record and the ``rref``,
``RowSpace.add`` and ``smith_normal_form`` calls per record: each the least
over ``--passes`` passes.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from drinfeld import amatrix, division, fields, invariants, linalg, modules, polys, survey, torsion
from drinfeld.config import SurveyOptions
from drinfeld.fields import FieldTower
from drinfeld.polys import enumerate_monic_irreducibles
from drinfeld.textio import module_from_text

# stage -> (module, function name)
STAGES = {
    "residue field": (modules, "reduce_at"),
    "prime test": (polys, "rabin_irreducible"),
    "root table": (fields, "orbit_roots"),
    "Weil route": (invariants, "weil_motive"),
    "skew identity": (invariants, "weil_identity_holds"),
    "rank-2 invariants": (invariants, "rank2_invariants_reduced"),
    "module structure": (division, "module_structure_reduced"),
    "structure oracle": (torsion, "module_structure_oracle_reduced"),
    "motive Frobenius": (modules, "motive_frobenius"),
    "motive invariants": (invariants, "motive_invariant_factors"),
    "endomorphism lattice": (invariants, "end_lattice_reduced"),
    "Abhyankar": (division, "abhyankar_splits_reduced"),
}


# counted kernel -> (owner, attribute)
KERNELS = {
    "rref": (linalg, "rref"),
    "add": (linalg.RowSpace, "add"),
    "smith": (amatrix, "smith_normal_form"),
}


def rebind(owner, name: str, new) -> None:
    """Put ``new`` in place of ``owner.name`` there and in every
    ``drinfeld`` namespace bound to the same function."""
    fn = getattr(owner, name)
    setattr(owner, name, new)
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "drinfeld":
            if mod.__dict__.get(name) is fn:
                setattr(mod, name, new)


def install(totals: dict[str, float], calls: dict[str, dict[str, int]]) -> None:
    """Put a timing wrapper in place of every stage function, in every
    ``drinfeld`` namespace bound to it, and a counter in place of each kernel
    in ``KERNELS``; ``calls[kernel][stage]`` counts its calls.  ``stack``
    holds, per open stage call, its name and the time spent in the stages it
    called."""
    stack: list[list] = []

    def wrap(stage, fn):
        def timed(*args, **kwargs):
            stack.append([stage, 0.0])
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals[stage] += dt - stack.pop()[1]
                if stack:
                    stack[-1][1] += dt

        return timed

    def count(kernel, fn):
        def counted(*args, **kwargs):
            calls[kernel][stack[-1][0] if stack else "other"] += 1
            return fn(*args, **kwargs)

        return counted

    for kernel, (owner, name) in KERNELS.items():
        rebind(owner, name, count(kernel, getattr(owner, name)))

    for stage, (module, name) in STAGES.items():
        rebind(module, name, wrap(stage, getattr(module, name)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, default=5)
    ap.add_argument("--psi", type=str, default="T+1*t+1*t^2")
    ap.add_argument("--deg", type=str, default="4", help="comma-separated prime degrees")
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--full-checks", action="store_true", help="compare with the lattice's b's")
    args = ap.parse_args(argv)

    tower = FieldTower(args.q)
    degrees = [int(d) for d in args.deg.split(",")]
    primes = [p for d in degrees for p in enumerate_monic_irreducibles(tower.base_field, d)]
    options = SurveyOptions(with_lattice_checks=args.full_checks)
    names = [*STAGES, "other", "record"]
    totals = dict.fromkeys(STAGES, 0.0)
    calls = {kernel: dict.fromkeys(names, 0) for kernel in KERNELS}
    install(totals, calls)
    best = dict.fromkeys(names, float("inf"))
    least = {kernel: dict.fromkeys(names, float("inf")) for kernel in KERNELS}
    records = 0
    for _ in range(max(1, args.passes)):
        psi = module_from_text(args.psi, tower)
        for ctx in tower._fields.values():
            ctx._roots = None
        for stage in totals:
            totals[stage] = 0.0
        for counts in calls.values():
            for name in counts:
                counts[name] = 0
        t0 = perf_counter()
        recs = [survey.compute_record(psi, p, options) for p in primes]
        wall = perf_counter() - t0
        records = sum(1 for r in recs if r.skipped is None)
        errors = sum(1 for r in recs if r.warnings)
        if errors:
            print(f"warning: {errors} records carry warnings", file=sys.stderr)
        times = {**totals, "record": wall, "other": wall - sum(totals.values())}
        for kernel, counts in calls.items():
            counts["record"] = sum(counts.values())
            for name in names:
                least[kernel][name] = min(least[kernel][name], counts[name])
        for name, t in times.items():
            best[name] = min(best[name], t)

    print(f"q={args.q} psi={args.psi} degrees={args.deg}: {records} records, "
          f"least of {max(1, args.passes)} passes")
    print(f"{'stage':<22}{'us/record':>10}{'share':>8}{'rref/record':>13}{'add/record':>12}"
          f"{'smith/record':>14}")
    per = max(records, 1)
    for name in names:
        if name in STAGES and best[name] == 0.0:
            continue
        us = best[name] / per * 1e6
        rrefs, adds, smiths = (least[kernel][name] / per for kernel in KERNELS)
        print(f"{name:<22}{us:>10.1f}{best[name] / best['record']:>8.1%}"
              f"{rrefs:>13.2f}{adds:>12.2f}{smiths:>14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
