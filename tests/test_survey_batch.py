"""A survey chunk's batch against batches of one and independent oracles:
the stacked motive recurrence, psibar_T blocks and skew identity give every
prime of a chunk what a batch of that prime alone gives it, the stacked
identity agrees with the sum of the psibar images (``_identity_by_sums``)
and the certified polynomials with the torsion route (``weil_general``), a
faulty prime inside a chunk gets the record it gets alone, and chunk
boundaries do not show in the output."""

import json
from pathlib import Path

import numpy as np
import pytest

from drinfeld import invariants, survey
from drinfeld.cli import main
from drinfeld.config import SurveyOptions
from drinfeld.errors import DrinfeldError
from drinfeld.fields import FieldTower
from drinfeld.invariants import WeilPolynomial, weil_batch, weil_general
from drinfeld.modules import motive_batch, reduce_at
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.textio import module_from_text, poly_from_text

from test_invariants import _identity_by_sums

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
IDS = [f"q{s[0]}-{s[1]}" for s in SETTINGS]


def _good_primes(psi, d: int) -> list[Poly]:
    return [p for p in enumerate_monic_irreducibles(psi.base, d) if not (psi.g[-1] % p).is_zero()]


@pytest.mark.parametrize("q,text,degrees", SETTINGS, ids=IDS)
def test_batch_equals_the_per_prime_route(q, text, degrees):
    """Stacking never mixes primes: every prime of a chunk gets the motive
    arrays, psibar_T blocks and certified Weil polynomial that a batch of
    that prime alone, the per-prime route, gives it."""
    psi = module_from_text(text, FieldTower(q))
    for d in degrees:
        primes = _good_primes(psi, d)
        batched = [reduce_at(psi, p) for p in primes]
        weil_batch(batched)
        for p, red in zip(primes, batched):
            alone = reduce_at(psi, p)
            weil_batch([alone])
            assert red.motive[0].shape == alone.motive[0].shape
            assert np.array_equal(red.motive[0], alone.motive[0]) and red.motive[1] == alone.motive[1]
            blocks = alone.psibar_blocks
            assert [k is None for k in red.psibar_blocks] == [k is None for k in blocks]
            assert all(k is None or np.array_equal(k, b) for k, b in zip(red.psibar_blocks, blocks))
            assert red.weil is not None and alone.weil is not None
            assert (red.weil.coeffs, red.weil.unit) == (alone.weil.coeffs, alone.weil.unit)


@pytest.mark.parametrize("q,text,degrees", SETTINGS, ids=IDS)
def test_stacked_identity_agrees_with_the_sum_of_psibar_images(q, text, degrees):
    """On each chunk, the stacked skew identity gives every prime the verdict
    of ``_identity_by_sums`` (one ``psibar_array`` per coefficient) on a mix
    of right and wrong polynomials.  One wrong polynomial per chunk has
    c_0 + T p, of T-degree deg p + 1, so the stacked accumulator grows
    taller for that prime alone."""
    psi = module_from_text(text, FieldTower(q))
    T, one = Poly.x(psi.base), Poly.one(psi.base)
    for d in degrees:
        primes = _good_primes(psi, d)
        reds = [reduce_at(psi, p) for p in primes]
        weil_batch(reds)
        weils = []
        for u, (p, red) in enumerate(zip(primes, reds)):
            coeffs = list(red.weil.coeffs)
            if u == len(primes) // 2:
                coeffs[0] = coeffs[0] + T * p
            elif u % 2:
                coeffs[u % psi.rank] = coeffs[u % psi.rank] + one
            weils.append(WeilPolynomial(prime=p, coeffs=tuple(coeffs), unit=red.weil.unit))
        verdicts = invariants._identities_hold(reds, weils, motive_batch(reds))
        assert verdicts == [_identity_by_sums(red, w) for red, w in zip(reds, weils)]
        right = [u != len(primes) // 2 and not u % 2 for u in range(len(primes))]
        assert verdicts == right, d


def test_own_moduli_agree_with_the_torsion_route():
    """Two degree-9 primes at q = 3 have residue fields with their own
    modulus, one field each, so each runs as a batch of one; the Weil
    polynomials they certify are those of torsion Frobenius matrices glued
    by CRT."""
    tower = FieldTower(3, max_degree=200)
    psi = module_from_text("T+1*t+1*t^2", tower)
    primes = [poly_from_text(s, tower) for s in ("T^9+2*T^3+T^2+T+2", "T^9+T^7+T^5+2*T^4+T^3+2*T^2+T+2")]
    reds = [reduce_at(psi, p) for p in primes]
    assert reds[0].ctx is not reds[1].ctx
    for p, red in zip(primes, reds):
        weil_batch([red])
        weil = weil_general(psi, p)
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
    raises, one prime's Weil polynomial fails the skew identity and one
    prime's reading raises an unexpected error.  The chunk gives the records
    that ``compute_record`` gives each prime alone, byte for byte, and
    every other prime comes out of the batch certified."""
    tower = FieldTower(5)
    psi = module_from_text("T+1*t+1*t^2", tower)
    primes = list(enumerate_monic_irreducibles(psi.base, 2))
    unreduced, broken, wrong = primes[2], primes[4], primes[6]
    reduce_original, weil_original = survey.reduce_at, invariants._weil_from_minors

    def reduce_at_patched(psi_, p):
        if p == unreduced:
            raise DrinfeldError("patched reduction failure")
        return reduce_original(psi_, p)

    def weil_patched(red):
        if red.prime == broken:
            raise RuntimeError("unexpected")
        weil = weil_original(red)
        if red.prime != wrong:
            return weil
        c0, c1 = weil.coeffs
        return WeilPolynomial(weil.prime, (c0, c1 + Poly.one(psi.base)), weil.unit)

    monkeypatch.setattr(survey, "reduce_at", reduce_at_patched)
    monkeypatch.setattr(invariants, "_weil_from_minors", weil_patched)
    options = SurveyOptions(with_abhyankar=True)
    alone = [json.dumps(survey.compute_record(psi, p, options).to_dict()) for p in primes]
    batches = _spy(monkeypatch, invariants, "weil_batch")
    chunk = [json.dumps(r.to_dict()) for r in survey.chunk_records(psi, primes, options)]
    assert chunk == alone
    assert sum('"error: patched reduction failure"' in line for line in chunk) == 1
    assert sum('"error: RuntimeError: unexpected"' in line for line in chunk) == 1
    assert sum("fails the skew identity" in line for line in chunk) == 1
    (reds,) = batches
    assert [red.prime for red in reds] == [p for p in primes if p != unreduced]
    assert [red.prime for red in reds if red.weil is None] == [broken, wrong]


def test_a_batch_that_raises_leaves_its_primes_to_their_records(monkeypatch):
    """A batch that raises aborts no chunk: each of its primes gets the
    record ``compute_record`` gives it alone."""
    tower = FieldTower(5)
    psi = module_from_text("T+1*t+1*t^2", tower)
    primes = list(enumerate_monic_irreducibles(psi.base, 2))
    options = SurveyOptions(with_abhyankar=True)
    alone = [json.dumps(survey.compute_record(psi, p, options).to_dict()) for p in primes]

    def weil_batch_patched(reds):
        raise RuntimeError("patched batch failure")

    monkeypatch.setattr(survey, "weil_batch", weil_batch_patched)
    chunk = [json.dumps(r.to_dict()) for r in survey.chunk_records(psi, primes, options)]
    assert chunk == alone
    assert not any("error" in line for line in chunk)


def test_single_primes_and_own_moduli_take_the_per_prime_route(monkeypatch):
    """A chunk of one prime, and a chunk of primes whose residue fields have
    their own modulus (q = 3, degree 9), run one batch of one per prime,
    the per-prime route, and each record is the one ``compute_record``
    gives the prime alone."""
    tower = FieldTower(3)
    psi = module_from_text("T+1*t+1*t^2", tower)
    one = list(enumerate_monic_irreducibles(psi.base, 2))[:1]
    own = [p for p, _ in zip(enumerate_monic_irreducibles(psi.base, 9), range(2))]
    for chunk in (one, own):
        alone = [json.dumps(survey.compute_record(psi, p, SurveyOptions()).to_dict()) for p in chunk]
        batches = _spy(monkeypatch, invariants, "weil_batch")
        recs = list(survey.chunk_records(psi, chunk, SurveyOptions()))
        assert [json.dumps(r.to_dict()) for r in recs] == alone
        assert [r.warnings for r in recs] == [[]] * len(chunk)
        assert [[red.prime for red in reds] for reds in batches] == [[p] for p in chunk]
        assert all(reds[0].weil is not None for reds in batches)


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
