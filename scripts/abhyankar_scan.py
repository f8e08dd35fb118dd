#!/usr/bin/env python3
"""Scan primes for complete splitting of the Abhyankar trinomial of a rank-2
module and compare against the #PGL_2(F_q)^-1 density prediction.

Usage: python scripts/abhyankar_scan.py [--q 5] [--psi "T+1*t+1*t^2"] [--max-deg 5]
"""

import argparse
import sys
import time

from drinfeld.config import SurveyOptions
from drinfeld.division import abhyankar_poly
from drinfeld.fields import FieldTower
from drinfeld.survey import density_report, run_survey
from drinfeld.textio import module_from_text, x_poly_to_text


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, default=5)
    ap.add_argument("--psi", type=str, default="T+1*t+1*t^2")
    ap.add_argument("--max-deg", type=int, default=5)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    tower = FieldTower(args.q, max_degree=1024)
    psi = module_from_text(args.psi, tower)
    f = abhyankar_poly(psi)
    print(f"# q = {args.q}, f_psi = {x_poly_to_text(f.coeffs, '+')}")
    t0 = time.time()
    recs = list(
        run_survey(psi, range(1, args.max_deg + 1), SurveyOptions(jobs=args.jobs))
    )
    est = density_report(recs, "abhyankar_split")
    split = [r.p for r in recs if r.splits_abhyankar]
    print(f"primes scanned : {sum(1 for r in recs if r.skipped is None)}")
    print(f"splits observed: {est.observed_count}")
    print(f"prediction     : {est.predicted} ~ {float(est.predicted):.2f}")
    print(f"split primes   : {split}")
    print(f"[{time.time()-t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
