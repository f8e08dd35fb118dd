"""Workload definitions and one pass of a workload, run inside one process.

A pass is what a user gets from one ``drinfeld survey --format json`` call
with ``--jobs 1`` and the default survey options: every record is serialized
as the CLI prints it.  The sampling workload calls ``compute_record`` on a
fixed sample of primes instead, since its primes are too many to enumerate.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Workload:
    q: int
    psi: str  # psi_T in the CLI's text form
    degrees: tuple[int, ...]
    max_degree: int  # the tower cap, as DF_MAX_EXT_DEGREE would set it
    per_degree: int = 0  # sampled primes per degree; 0 = survey every prime

    @property
    def rank(self) -> int:
        return int(self.psi.rsplit("t^", 1)[1])


WORKLOADS = {
    # Rank 2 on log-table residue fields (F_{5^n}, n <= 4) with the Abhyankar
    # stage on: polys (powmod inside factorize), modules, table-path fields.
    "survey-r2-q5-abhyankar": Workload(5, "T+1*t+1*t^2", (1, 2, 3, 4), 64),
    # Rank 3 takes the general route (torsion bases + CRT): torsion, linalg,
    # amatrix and extension fields up to degree 315, hence the cap of 1024.
    # Degree 6 raises ConfigurationError on every prime (the auxiliary-moduli
    # budget), so the survey stops at degree 5.
    "survey-r3-q2-torsion": Workload(2, "T+1*t+1*t^3", (1, 2, 3, 4, 5), 1024),
    # Residue fields F_{3^n}, n >= 10, exceed the 2^14 table limit and use the
    # numpy-convolution element path.
    "sample-r2-q3-largefield": Workload(3, "T+1*t+1*t^2", (10, 11, 12, 13, 14), 64, 4),
}


# The sampling workload's primes are drawn from this fixed seed, so that every
# --seed does the same work.  Record time grows steeply with the degree, and
# the first record of each degree builds that degree's field, so both the
# sample and its order would move the timings.
POOL_SEED = 0


def sample_primes(tower, spec: Workload) -> list:
    """``per_degree`` distinct monic irreducibles of each degree, in degree
    order, drawn from a generator seeded by POOL_SEED."""
    from drinfeld.polys import Poly, is_irreducible

    base = tower.base_field
    rng = random.Random(POOL_SEED)
    out = []
    for d in spec.degrees:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < spec.per_degree:
            codes = tuple(rng.randrange(base.order) for _ in range(d))
            if codes in seen:
                continue
            p = Poly(base, [base.dec_elem(c) for c in codes] + [base.one_elem()])
            if is_irreducible(p):
                seen.add(codes)
                out.append(p)
    return out


@dataclass
class Setup:
    tower: object
    psi: object
    primes: list | None  # sampled primes in degree order; None for a survey


def setup(spec: Workload) -> Setup:
    """Everything a pass needs before its first record.  Residue fields are
    built lazily by the pass itself, as the CLI builds them."""
    from drinfeld.fields import FieldTower
    from drinfeld.textio import module_from_text

    tower = FieldTower(spec.q, max_degree=spec.max_degree)
    psi = module_from_text(spec.psi, tower)
    return Setup(tower, psi, sample_primes(tower, spec) if spec.per_degree else None)


@dataclass
class PassResult:
    lines: list[str]  # one JSON line per record, as the CLI prints it
    records: list  # the SurveyRecord objects
    record_s: list[float]  # per-record seconds
    wall_s: float


def run_pass(spec: Workload, state: Setup, now=perf_counter) -> PassResult:
    """One pass timed on the clock ``now``; per-record time is the time spent
    producing the record, wall time also covers enumeration and
    serialization."""
    from drinfeld import survey
    from drinfeld.config import SurveyOptions

    options = SurveyOptions()
    lines: list[str] = []
    records = []
    record_s: list[float] = []
    start = now()
    if state.primes is None:
        it = survey.run_survey(state.psi, spec.degrees, options)
        while True:
            t0 = now()
            try:
                rec = next(it)
            except StopIteration:
                break
            record_s.append(now() - t0)
            records.append(rec)
            lines.append(json.dumps(rec.to_dict(), sort_keys=False))
    else:
        for p in state.primes:
            t0 = now()
            rec = survey.compute_record(state.psi, p, options)
            record_s.append(now() - t0)
            records.append(rec)
            lines.append(json.dumps(rec.to_dict(), sort_keys=False))
    wall_s = now() - start
    return PassResult(lines, records, record_s, wall_s)


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def count_failed(result: PassResult, reference: list[str] | None) -> tuple[int, int]:
    """(attempted, failed).  A record fails when it carries warnings, misses a
    required check, or differs from the reference stream; a record missing
    from the stream fails too."""
    from drinfeld.survey import REQUIRED_CHECKS

    failed = 0
    for i, (line, rec) in enumerate(zip(result.lines, result.records)):
        bad = bool(rec.warnings) or any(c not in rec.checks_passed for c in REQUIRED_CHECKS)
        if reference is not None and (i >= len(reference) or line_digest(line) != reference[i]):
            bad = True
        failed += bad
    attempted = len(result.lines)
    if reference is not None and len(reference) > attempted:
        failed += len(reference) - attempted
        attempted = len(reference)
    return attempted, failed
