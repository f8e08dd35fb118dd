"""Pinned survey output above the log-table limit, where residue fields have
no log tables (more than 2^14 elements).

Two pins, both written before the residue fields above the limit changed
their representation, so each must stay byte-identical:

- ``data/sample_above_limit.jsonl``: 126 records, 7 primes drawn with a
  fixed seed for each of two modules (ranks 2 and 3) at each of q=2
  (degrees 15, 16), q=3 (degrees 9-12), q=5 (degree 7) and q=7 (degrees 5,
  6).  Running this file as a script prints them.
- the sha256 of the full q=3 survey of psi_T = T + tau + tau^2 at degree 9
  (2,184 records), as ``perfbench/reference.json`` keeps digests, since the
  output itself is half a megabyte.

Both run at one and two worker processes, the second through the survey's
worker pool.
"""

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from drinfeld import survey
from drinfeld.cli import main
from drinfeld.config import SurveyOptions
from drinfeld.fields import FieldTower
from drinfeld.polys import Poly, is_irreducible
from drinfeld.textio import module_from_text

SAMPLE = Path(__file__).parent / "data" / "sample_above_limit.jsonl"

# (q, degrees, one rank-2 and one rank-3 psi_T)
CELLS = [
    (2, (15, 16), ("T+1*t+1*t^2", "T+1*t+(T+1)*t^2+1*t^3")),
    (3, (9, 10, 11, 12), ("T+T*t+1*t^2", "T+1*t+0*t^2+1*t^3")),
    (5, (7,), ("T+1*t+T*t^2", "T+(T+1)*t+1*t^2+1*t^3")),
    (7, (5, 6), ("T+0*t+1*t^2", "T+1*t+1*t^2+T*t^3")),
]
PER_DEGREE = 7

SURVEY_ARGS = ["--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "9"]
SURVEY_SHA256 = "10a20e3822e1b5ffa329cc250a0d982f7e17d0a8de5a33ffd6556be707b8a022"


def _draw(base, d: int, rng: random.Random) -> list[Poly]:
    """PER_DEGREE distinct monic primes of degree d, drawn from rng."""
    seen, out = set(), []
    while len(out) < PER_DEGREE:
        codes = tuple(rng.randrange(base.order) for _ in range(d))
        p = Poly(base, [base.dec_elem(c) for c in codes] + [base.one_elem()])
        if codes not in seen and is_irreducible(p):
            seen.add(codes)
            out.append(p)
    return out


def _cells():
    """(tower, psi_T text, primes in degree order) per module, the primes of
    each degree drawn from a generator seeded by the module and degree."""
    for q, degrees, psis in CELLS:
        tower = FieldTower(q)
        for text in psis:
            yield tower, text, [
                p for d in degrees for p in _draw(tower.base_field, d, random.Random(f"{q} {text} {d}"))
            ]


def _lines(jobs: int) -> list[str]:
    out = []
    for tower, text, primes in _cells():
        psi = module_from_text(text, tower)
        if jobs == 1:
            recs = [survey.compute_record(psi, p, SurveyOptions()).to_dict() for p in primes]
        else:
            g_codes = [[c.int_code() for c in g.coeffs] for g in psi.g]
            # one-prime chunks, since the sample mixes degrees
            tasks = [[[c.int_code() for c in p.coeffs]] for p in primes]
            init = (tower.q, tower.max_degree, g_codes, {})
            with ProcessPoolExecutor(jobs, initializer=survey._worker_init, initargs=init) as pool:
                recs = [d for chunk in pool.map(survey._worker_run, tasks) for d in chunk]
        out += [json.dumps(d, sort_keys=False) + "\n" for d in recs]
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_sampled_records_above_the_table_limit(jobs):
    assert "".join(_lines(jobs)) == SAMPLE.read_text(encoding="utf-8")


@pytest.mark.parametrize("jobs", [1, 2])
def test_q3_degree9_survey_digest(jobs, capsys, monkeypatch):
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    assert main(["survey", *SURVEY_ARGS, "--format", "json", "--jobs", str(jobs)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 2184
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SURVEY_SHA256


if __name__ == "__main__":
    print("".join(_lines(1)), end="")
