"""Time the stages of survey records, built as a survey builds them.

    PYTHONPATH=src python scripts/record_bench.py [--q Q] [--psi PSI] [--deg D,...] [--passes N]
                                                  [--full-checks]

One pass runs the survey's chunk path (``survey.chunk_records`` on the
chunks ``survey.chunked`` makes of each degree, as ``run_survey`` does with
one worker) with the default survey options (plus the lattice checks under
``--full-checks``) on every prime of the given degrees, for a module built
afresh in the pass, so each pass builds its residue fields as a survey does;
the tower, and with it the fields F_(q^n) and their log tables, is shared
by the passes.  Each pass drops the fields' root tables, so it builds them
once per degree, as a survey process does.  The stages are timed by plain wrappers put in place of
these functions in every ``drinfeld`` namespace that binds them:

- ``residue field``: ``modules.reduce_at`` (the residue field and the
  reduction): the field context, the T-image and the reduced coefficients
  of psibar_T, with no change of basis.  The T-image takes one of three
  routes: a lookup in the field's root table (table fields), x in the
  field's own modulus F_q[x]/(p) (prime q above the table limit, whose
  Frobenius matrix ``polys.frobenius_matrix`` is built here) or
  ``polys.lex_min_root`` (q = p^e > p above the limit); -p_0 at degree 1;
- ``prime test``: ``polys.rabin_irreducible``, Rabin's first condition
  Q^d x = x plus Berlekamp's rank of Q - I on the q-power matrix Q, which
  certifies the own modulus of a residue field;
- ``root table``: ``fields.orbit_roots``, the one walk over the Frobenius
  orbits of F_(q^n) that builds that table, inside the first record of
  each degree;
- ``Weil batch``: ``invariants.weil_batch``, once per group of a chunk's
  reductions that share one residue field context, and so once per prime
  on an own-modulus field, a batch of one: one stacked motive recurrence
  and the blocks of psibar_T for the group, each prime's Weil polynomial
  read off the principal-minor sums of its Pi over F_p[T] and projected
  to A, and one stacked Horner pass of the skew identity P(pi) = 0;
- ``Weil route``: ``invariants.weil_motive``, which returns the polynomial
  the batch certified;
- ``rank-2 invariants``: ``invariants.rank2_invariants_reduced`` without
  the stages it calls, i.e. d = a_p^2 - 4 u_p p and delta_p;
- ``b route``: ``invariants.b_invariants`` without the motive stages it
  calls.  In rank 2 that is all of it: g = gcd(d, d'), which is 1 where d
  is squarefree, and elsewhere the entries of the motive matrix taken mod g
  in one product and their gcd with g, no Smith form.  In rank >= 3 it only
  hands over to the motive invariants;
- ``module structure``: ``division.module_structure_reduced``, the closed
  form the oracle checks;
- ``structure oracle``: ``torsion.module_structure_oracle_reduced``, in
  the residue field's own coordinates;
- ``motive Frobenius``: ``modules.motive_frobenius``, Pi with entries in
  F_p[T], for torsion and the tests; it no longer runs on survey records.
  A reduction runs the recurrence whose windows are Pi, .., Pi^(r-1)
  (``modules.motive_batch``) once and caches it, so its time goes to the
  stage that asks first: on a survey record the Weil batch;
- ``motive invariants``: ``invariants.motive_invariant_factors`` without the
  recurrence: the gcd of a few (r-1)-minors of the matrix of the
  recurrence's windows, which certifies trivial b's, and the Smith form of
  that matrix only where the certificate fails.  It runs on every record in
  rank >= 3 and on no survey record in rank 2;
- ``endomorphism lattice``: ``invariants.end_lattice_reduced``, the b's
  second route, which only ``--full-checks`` reaches;
- ``Abhyankar``: ``division.abhyankar_splits_reduced``, whose split test
  counts the distinct roots of the reduced Abhyankar polynomial
  (``polys.splits_separably``) and, on a split prime, takes disc(P) from the
  Weil polynomial.

A stage's time excludes the stages it calls, and ``other`` is what is left
of the records.  Cached data goes to the stage that builds it first (the
blocks of psibar_T, for one, to the Weil batch).
Every ``linalg.rref`` call, those made inside ``nullspace`` and ``solve``
included, every
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
    "Weil batch": (invariants, "weil_batch"),
    "Weil route": (invariants, "weil_motive"),
    "rank-2 invariants": (invariants, "rank2_invariants_reduced"),
    "b route": (invariants, "b_invariants"),
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
    chunks = [c for d in degrees for c in survey.chunked(enumerate_monic_irreducibles(tower.base_field, d))]
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
        recs = [rec for chunk in chunks for rec in survey.chunk_records(psi, chunk, options)]
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
