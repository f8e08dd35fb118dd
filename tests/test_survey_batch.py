"""A survey chunk's batch against the per-prime route: the stacked motive
recurrence, the stacked psibar_T blocks and the stacked skew identity give
every prime what ``motive_recurrence``, ``left_blocks`` and ``weil_motive``
give it, a faulty prime inside a chunk gets the record the per-prime route
gives it, and chunk boundaries do not show in the output."""

import json
from pathlib import Path

import numpy as np
import pytest

from drinfeld import invariants, survey
from drinfeld.cli import main
from drinfeld.config import SurveyOptions
from drinfeld.errors import DrinfeldError
from drinfeld.fields import FieldTower
from drinfeld.invariants import WeilPolynomial, weil_batch, weil_motive
from drinfeld.modules import motive_recurrence, reduce_at
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.skew import left_blocks
from drinfeld.textio import module_from_text

DATA = Path(__file__).parent / "data"

# (q, psi_T, degrees): rank 2 at q = 5, rank 3 at q = 2, and q = 4, 9, where
# the base degree e = 2 enters the Frobenius powers of the orbit and blocks.
# A non-constant g_r makes N(g_r) differ from prime to prime; the primes
# dividing it have bad reduction and stay out of the batch.
SETTINGS = [
    (5, "T+1*t+T*t^2", (1, 2, 3, 4)),
    (2, "T+1*t+(T+1)*t^3", (1, 2, 3, 4, 5, 6)),
    (4, "T+1*t+T*t^2", (1, 2)),
    (9, "T+T*t+(T+1)*t^2", (1, 2)),
]


@pytest.mark.parametrize("q,text,degrees", SETTINGS, ids=[f"q{s[0]}-{s[1]}" for s in SETTINGS])
def test_batch_equals_the_per_prime_route(q, text, degrees):
    psi = module_from_text(text, FieldTower(q))
    for d in degrees:
        primes = [p for p in enumerate_monic_irreducibles(psi.base, d) if not (psi.g[-1] % p).is_zero()]
        batched = [reduce_at(psi, p) for p in primes]
        weil_batch(batched)
        for p, red in zip(primes, batched):
            alone = reduce_at(psi, p)
            powers, ninv = motive_recurrence(alone)
            assert red.motive[0].shape == powers.shape
            assert np.array_equal(red.motive[0], powers) and red.motive[1] == ninv
            blocks = left_blocks(alone.ctx, alone.psibar_T.array())
            assert [k is None for k in red.psibar_blocks] == [k is None for k in blocks]
            assert all(k is None or np.array_equal(k, b) for k, b in zip(red.psibar_blocks, blocks))
            weil = weil_motive(alone)
            assert red.weil is not None
            assert (red.weil.coeffs, red.weil.unit) == (weil.coeffs, weil.unit)


def _spy(monkeypatch, module, name: str) -> list:
    """Record the first argument of every call of module.name made through
    the survey module."""
    seen = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(survey, name, spy)
    return seen


def test_a_faulty_prime_gets_its_per_prime_record(monkeypatch):
    """In a chunk of the 10 primes of degree 2 at q = 5, one reduction
    raises and one prime's Weil polynomial fails the skew identity.  The
    chunk gives the records of the per-prime route byte for byte, and every
    other prime comes out of the batch certified."""
    tower = FieldTower(5)
    psi = module_from_text("T+1*t+1*t^2", tower)
    primes = list(enumerate_monic_irreducibles(psi.base, 2))
    unreduced, wrong = primes[2], primes[6]
    reduce_original, weil_original = survey.reduce_at, invariants._weil_at_t

    def reduce_at_patched(psi_, p):
        if p == unreduced:
            raise DrinfeldError("patched reduction failure")
        return reduce_original(psi_, p)

    def weil_patched(red):
        weil = weil_original(red)
        if red.prime != wrong:
            return weil
        c0, c1 = weil.coeffs
        return WeilPolynomial(weil.prime, (c0, c1 + Poly.one(psi.base)), weil.unit)

    monkeypatch.setattr(survey, "reduce_at", reduce_at_patched)
    monkeypatch.setattr(invariants, "_weil_at_t", weil_patched)
    options = SurveyOptions(with_abhyankar=True)
    alone = [json.dumps(survey.compute_record(psi, p, options).to_dict()) for p in primes]
    batches = _spy(monkeypatch, invariants, "weil_batch")
    chunk = [json.dumps(r.to_dict()) for r in survey.chunk_records(psi, primes, options)]
    assert chunk == alone
    assert sum('"error: patched reduction failure"' in line for line in chunk) == 1
    assert sum("fails the skew identity" in line for line in chunk) == 1
    (reds,) = batches
    assert [red.prime for red in reds] == [p for p in primes if p != unreduced]
    assert [red.prime for red in reds if red.weil is None] == [wrong]


def test_single_primes_and_own_moduli_take_the_per_prime_route(monkeypatch):
    """A chunk of one prime, and a chunk of primes whose residue fields have
    their own modulus (q = 3, degree 9), run no batch."""
    tower = FieldTower(3)
    psi = module_from_text("T+1*t+1*t^2", tower)
    batches = _spy(monkeypatch, invariants, "weil_batch")
    one = list(enumerate_monic_irreducibles(psi.base, 2))[:1]
    assert len(list(survey.chunk_records(psi, one, SurveyOptions()))) == 1
    own = [p for p, _ in zip(enumerate_monic_irreducibles(psi.base, 9), range(2))]
    recs = list(survey.chunk_records(psi, own, SurveyOptions()))
    assert [r.warnings for r in recs] == [[], []]
    assert batches == []


def test_chunks_are_consecutive_and_bounded(monkeypatch):
    monkeypatch.setattr(survey, "CHUNK", 7)
    primes = list(range(18))
    assert [len(c) for c in survey.chunked(primes)] == [7, 7, 4]
    assert [len(c) for c in survey.chunked(primes[:10], 2)] == [5, 5]
    assert sum(survey.chunked(primes, 3), []) == primes
    assert [len(c) for c in survey.chunked(primes, 64)] == [1] * 18


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunk_boundaries_do_not_show(jobs, capsys, monkeypatch):
    """With chunks of at most 7 primes the q = 3 golden survey (degrees 1-4,
    3 + 3 + 8 + 18 primes) splits inside every degree from 3 on."""
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    monkeypatch.setattr(survey, "CHUNK", 7)
    args = ["--q", "3", "--psi", "T+0*t+1*t^2", "--deg", "1,2,3,4"]
    assert main(["survey", *args, "--format", "json", "--jobs", str(jobs)]) == 0
    assert capsys.readouterr().out == (DATA / "survey_q3_t2_deg1-4.jsonl").read_text(encoding="utf-8")
