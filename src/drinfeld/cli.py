"""Command-line front end.

Exit codes: 0 success, 1 usage or domain error, 2 per-record verification
failure in strict mode.  The environment variable DF_MAX_EXT_DEGREE overrides
the field tower's degree cap (default 64).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
from fractions import Fraction

from .config import SurveyOptions
from .division import (
    abhyankar_poly,
    abhyankar_splits_mod,
    frobenius_class_matrix,
    jm_splits,
    module_structure,
    splits_completely,
)
from .errors import ConfigurationError, DrinfeldError, StrictModeError, UsageError
from .fields import FieldTower
from .invariants import b_invariants, rank2_invariants, weil_motive
from .modules import reduce_at
from .polys import Poly
from .survey import (
    CSV_COLUMNS,
    cm_example,
    density_report,
    run_survey,
)
from .textio import (
    fq_to_text,
    matrix_to_text,
    module_from_text,
    module_to_text,
    poly_from_text,
    poly_to_text,
    weil_to_text,
    x_poly_to_text,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tower(q: int) -> FieldTower:
    raw = os.environ.get("DF_MAX_EXT_DEGREE", "64")
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigurationError(f"DF_MAX_EXT_DEGREE must be a positive integer, not {raw!r}")
    return FieldTower(q, max_degree=int(raw))


def _module(args, tower):
    if not args.psi:
        raise UsageError("--psi is required for this subcommand")
    return module_from_text(args.psi, tower)


def _prime(args, tower) -> Poly:
    if not args.p:
        raise UsageError("--p is required for this subcommand")
    return poly_from_text(args.p, tower).monic()


def _degrees(text: str) -> list[int]:
    """The prime degrees of a comma-separated --deg list, each at least 1."""
    try:
        degrees = [int(d) for d in text.split(",") if d]
    except ValueError:
        raise UsageError(f"--deg takes comma-separated integers, not {text!r}") from None
    if not degrees or min(degrees) < 1:
        raise UsageError(f"--deg needs prime degrees of at least 1, not {text!r}")
    return degrees


def _jobs(n: int) -> int:
    """The --jobs worker count, at least 1."""
    if n < 1:
        raise UsageError(f"--jobs needs a positive integer, not {n}")
    return n


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def build_parser() -> _Parser:
    ap = _Parser(prog="drinfeld", description="Frobenius invariants of Drinfeld modules")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, psi=True, prime=False):
        p.add_argument("--q", type=int, required=True)
        if psi:
            p.add_argument("--psi", type=str, default=None)
        if prime:
            p.add_argument("--p", type=str, default=None)

    p = sub.add_parser("weil", help="Weil polynomial at a prime")
    common(p, prime=True)

    p = sub.add_parser("invariants", help="a_p, u_p, b_p, delta_p at a prime")
    common(p, prime=True)

    p = sub.add_parser("frobmat", help="Frobenius class matrix mod a")
    common(p, prime=True)
    p.add_argument("--a", type=str, required=True)

    p = sub.add_parser(
        "split", help="complete splitting in F(psi[a]) (--a) or in J_m (--m)"
    )
    common(p, prime=True)
    p.add_argument("--a", type=str, default=None)
    p.add_argument("--m", type=str, default=None)

    p = sub.add_parser("structure", help="A-module structure of the residue field")
    common(p, prime=True)

    p = sub.add_parser("abhyankar", help="Abhyankar polynomial and its splitting")
    common(p, prime=True)

    p = sub.add_parser("survey", help="per-prime invariant records")
    common(p)
    p.add_argument("--deg", type=str, required=True, help="comma-separated degrees")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--full-checks", action="store_true")

    p = sub.add_parser("density", help="density estimates")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=("cm_supersingular", "bp_equals_one", "abhyankar_split",
                            "noncm", "noncm_truncated_sum"))
    p.add_argument("--deg", type=str, default=None)
    p.add_argument("--max-deg", type=int, default=None)
    p.add_argument("--c-k", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("cm-example", help="reference CM module")
    p.add_argument("--q", type=int, required=True)
    return ap


def _cmd_weil(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    p = _prime(args, tower)
    weil = weil_motive(reduce_at(psi, p))
    print(weil_to_text(weil))
    return 0


def _cmd_invariants(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    p = _prime(args, tower)
    if psi.rank == 2 and tower.q % 2:
        inv = rank2_invariants(psi, p)
        out = {
            "a_p": poly_to_text(inv.a_p),
            "u_p": fq_to_text(inv.u_p, tower),
            "b_p": poly_to_text(inv.b_p),
            "delta_p": poly_to_text(inv.delta_p),
            "supersingular": inv.supersingular,
        }
    else:
        red = reduce_at(psi, p)
        weil = weil_motive(red)
        bfac = b_invariants(red, weil)
        out = {
            "weil": [poly_to_text(c) for c in weil.coeffs],
            "u_p": fq_to_text(weil.unit, tower),
            "b_invariants": [poly_to_text(b) for b in bfac],
        }
    print(json.dumps(out, sort_keys=False))
    return 0


def _cmd_frobmat(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    p = _prime(args, tower)
    a = poly_from_text(args.a, tower)
    mat = frobenius_class_matrix(psi, p, a)
    print(matrix_to_text(mat.entries))
    return 0


def _cmd_split(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    p = _prime(args, tower)
    if (args.a is None) == (args.m is None):
        raise UsageError("split needs exactly one of --a (full division field) or --m (J_m)")
    if args.a is not None:
        result = splits_completely(psi, p, poly_from_text(args.a, tower))
    else:
        result = jm_splits(psi, p, poly_from_text(args.m, tower))
    print("true" if result else "false")
    return 0


def _cmd_structure(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    p = _prime(args, tower)
    ms = module_structure(psi, p)
    print(
        json.dumps(
            {
                "d1": poly_to_text(ms.d1),
                "d2": poly_to_text(ms.d2),
                "discarded_unit": fq_to_text(ms.discarded_unit, tower),
            }
        )
    )
    return 0


def _cmd_abhyankar(args) -> int:
    tower = _tower(args.q)
    psi = _module(args, tower)
    f = abhyankar_poly(psi)
    if not args.p:
        print(x_poly_to_text(f.coeffs, "+"))
        return 0
    p = _prime(args, tower)
    splits, report = abhyankar_splits_mod(psi, p)
    out = {"f": x_poly_to_text(f.coeffs, "+"), "splits": splits, "b_1": poly_to_text(report["b_1"])}
    print(json.dumps(out))
    return 0


def _cmd_survey(args) -> int:
    jobs = _jobs(args.jobs)
    tower = _tower(args.q)
    psi = _module(args, tower)
    degrees = _degrees(args.deg)
    options = SurveyOptions(
        strict=args.strict,
        with_lattice_checks=args.full_checks,
        jobs=jobs,
    )
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        # a field with a comma (an error warning, say) is quoted
        writer = csv.writer(sink, lineterminator="\n")
        if args.format == "csv":
            writer.writerow(CSV_COLUMNS)
        for rec in run_survey(psi, degrees, options):
            d = rec.to_dict()
            if args.format == "json":
                print(json.dumps(d, sort_keys=False), file=sink)
            else:  # the writer writes None as ""
                writer.writerow(";".join(map(str, v)) if isinstance(v, list) else v
                                for v in d.values())
    except StrictModeError as exc:
        print(f"survey aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.out:
            sink.close()
    return 0


def _cmd_density(args) -> int:
    if args.c_k < 1:
        raise UsageError(f"--c-k needs a positive integer, not {args.c_k}")
    jobs = _jobs(args.jobs)
    tower = _tower(args.q)
    kind = args.kind
    if kind in ("noncm", "noncm_truncated_sum"):
        if args.max_deg is None:
            raise UsageError("--max-deg is required for the noncm estimator")
        est = density_report(None, kind, q=args.q, max_deg=args.max_deg)
        print(_frac(est.predicted))
        return 0
    psi = _module(args, tower)
    if kind == "abhyankar_split":
        if args.max_deg is None:
            raise UsageError("--max-deg is required for abhyankar_split")
        degrees = list(range(1, args.max_deg + 1))
    else:
        if not args.deg:
            raise UsageError("--deg is required for per-degree density kinds")
        degrees = _degrees(args.deg)
    options = SurveyOptions(jobs=jobs)
    records = list(run_survey(psi, degrees, options))
    est = density_report(records, kind, q=args.q, c_k=args.c_k)
    print(
        json.dumps(
            {
                "kind": est.kind,
                "x_or_max_deg": est.x_or_max_deg,
                "observed_count": est.observed_count,
                "predicted": _frac(est.predicted),
                "tolerance_note": est.tolerance_note,
            }
        )
    )
    return 0


def _cmd_cm_example(args) -> int:
    tower = _tower(args.q)
    psi, c_k = cm_example(args.q, tower)
    print(json.dumps({"psi": module_to_text(psi), "c_K": c_k}))
    return 0


_COMMANDS = {
    "weil": _cmd_weil,
    "invariants": _cmd_invariants,
    "frobmat": _cmd_frobmat,
    "split": _cmd_split,
    "structure": _cmd_structure,
    "abhyankar": _cmd_abhyankar,
    "survey": _cmd_survey,
    "density": _cmd_density,
    "cm-example": _cmd_cm_example,
}


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
        finally:
            sys.stdout.flush()  # a closed stdout fails here, not at exit
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DrinfeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (``drinfeld survey ... | head``): send the
        # unflushed rest to devnull so the exit flush cannot fail again, and
        # end with the status of a process stopped by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
