"""The invariants b_1 | ... | b_(r-1) from the motive Frobenius
(``invariants.motive_invariant_factors``) against their second routes: the
endomorphism lattice in every rank and characteristic, and the rank-2
conductor loop (``conductor_b_p``) at odd q.  Also the ``--full-checks``
comparison of the two in a survey record, the guards of the motive
route, and ``invariants.b_invariants``, the one place that picks the b's
route."""

import json
import sys
from itertools import islice

import numpy as np
import pytest

from drinfeld import invariants, survey
from drinfeld.cli import main
from drinfeld.config import SurveyOptions
from drinfeld.errors import DrinfeldError, TowerMembershipError
from drinfeld.fields import FieldTower
from drinfeld.invariants import (
    InvariantFactors,
    b_invariants,
    conductor_b_p,
    end_lattice_reduced,
    invariant_factors_from_lattice,
    motive_invariant_factors,
    rank2_invariants_reduced,
    weil_motive,
)
from drinfeld.modules import ReducedModule, motive_frobenius, reduce_at
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.survey import cm_example, compute_record
from drinfeld.textio import module_from_text, poly_from_text, poly_to_text

# (q, psi_T, prime degrees): ranks 2-4 at q = 2, 3, 4, 5, 9, with e = 2 at
# q = 4 and 9.  Most modules are chosen for primes with nontrivial b.
CASES = [
    (2, "T+T*t+1*t^2", (1, 2, 3, 4, 5)),
    (2, "T+1*t+T*t^2+1*t^3", (1, 2, 3, 4)),
    (2, "T+T^2*t+T*t^2+T^2*t^3+1*t^4", (1, 2, 3)),
    (3, "T+T*t+1*t^2", (1, 2, 3)),
    (3, "T+1*t+T*t^2+1*t^3", (1, 2)),
    (3, "T+T*t+T*t^2+T*t^3+1*t^4", (1, 2)),
    (4, "T+T*t+T*t^2", (1, 2, 3)),
    (4, "T+T^2*t+T*t^2", (1, 2, 3)),
    (4, "T+z*t+T*t^2+z*t^3", (1, 2)),
    (5, "T+T*t+1*t^2", (1, 2)),
    (5, "T+T*t+1*t^2+1*t^3", (1,)),
    (9, "T+(z*T^2+1)*t+T*t^2", (1, 2)),
    (9, "T+1*t+1*t^3", (1,)),
]

TOWERS = {q: FieldTower(q, max_degree=256) for q in (2, 3, 4, 5, 9)}


def _reductions(psi, degrees):
    for d in degrees:
        for p in enumerate_monic_irreducibles(psi.base, d):
            if not (psi.g[-1] % p).is_zero():
                yield reduce_at(psi, p)


def _nontrivial(factors) -> bool:
    return any(f.degree() >= 1 for f in factors)


def test_motive_b_equal_the_lattice_and_conductor_b():
    """The motive b's equal the lattice's on every case, and at odd q in
    rank 2 also the record's b_p and the conductor loop's; 49 cases have a
    nontrivial b."""
    nontrivial = 0
    covered = set()
    for q, text, degrees in CASES:
        psi = module_from_text(text, TOWERS[q])
        for red in _reductions(psi, degrees):
            b = motive_invariant_factors(red).factors
            assert len(b) == psi.rank - 1
            assert b == invariant_factors_from_lattice(end_lattice_reduced(red)).factors, (
                q, text, poly_to_text(red.prime))
            if psi.rank == 2 and q % 2:
                inv = rank2_invariants_reduced(red)
                assert b == [inv.b_p] == [conductor_b_p(red, inv.a_p, inv.d)]
            nontrivial += _nontrivial(b)
            covered.add((q, psi.rank))
    assert covered == {(q, r) for q in (2, 3, 4, 5, 9) for r in (2, 3)} | {(2, 4), (3, 4)}
    assert nontrivial >= 49


@pytest.mark.parametrize("q,degrees,floor", [(3, (1, 2, 3), 4), (5, (1, 2, 3), 20)])
def test_motive_b_equal_the_conductor_on_cm_primes(q, degrees, floor):
    """On the reference CM module the motive b equals the record's b_p and
    the conductor loop's, with nontrivial b_p on at least ``floor`` primes."""
    psi, _ = cm_example(q, TOWERS[q])
    nontrivial = 0
    for red in _reductions(psi, degrees):
        b = motive_invariant_factors(red).factors
        inv = rank2_invariants_reduced(red)
        assert b == [inv.b_p] == [conductor_b_p(red, inv.a_p, inv.d)]
        nontrivial += _nontrivial(b)
    assert nontrivial >= floor


# the rank >= 3 modules of CASES; q = 2, T+t+T*t^2+t^3 runs to degree 6,
# where 17 of its 23 primes have a nontrivial b, so the Smith form runs
# behind the certificate
CERTIFICATE_CASES = [
    (2, "T+1*t+T*t^2+1*t^3", (1, 2, 3, 4, 5, 6)),
    (2, "T+T^2*t+T*t^2+T^2*t^3+1*t^4", (1, 2, 3)),
    (3, "T+1*t+T*t^2+1*t^3", (1, 2)),
    (3, "T+T*t+T*t^2+T*t^3+1*t^4", (1, 2)),
    (4, "T+z*t+T*t^2+z*t^3", (1, 2)),
    (5, "T+T*t+1*t^2+1*t^3", (1,)),
    (9, "T+1*t+1*t^3", (1,)),
]


def test_minor_certificate_fires_exactly_on_trivial_lattice_b(monkeypatch):
    """In rank >= 3 the gcd of a few (r-1)-minors of the motive matrix
    certifies b = 1: it skips the Smith form exactly where the lattice's b's
    are all 1, and elsewhere the Smith form gives the lattice's b's."""
    smith_forms = [0]
    smith = invariants.smith_normal_form

    def counted(rows):
        smith_forms[0] += 1
        return smith(rows)

    monkeypatch.setattr(invariants, "smith_normal_form", counted)
    fired = nontrivial = 0
    for q, text, degrees in CERTIFICATE_CASES:
        psi = module_from_text(text, TOWERS[q])
        assert psi.rank >= 3
        for red in _reductions(psi, degrees):
            before = smith_forms[0]
            b = motive_invariant_factors(red).factors
            cert = smith_forms[0] == before
            lattice_b = invariant_factors_from_lattice(end_lattice_reduced(red)).factors
            assert cert is not _nontrivial(lattice_b), (q, text, poly_to_text(red.prime))
            assert b == lattice_b, (q, text, poly_to_text(red.prime))
            fired += cert
            nontrivial += _nontrivial(b)
    assert fired == 32 and nontrivial == 32


# (q, psi_T, prime degrees, first primes taken per degree): ranks 3 and 4 at
# q = 2, 3, 4, 9, then residue fields above the log-table limit, F_(3^9)
# (own modulus) and F_(9^5) (root search)
WINDOW_CASES = [
    (2, "T+1*t+T*t^2+1*t^3", (1, 2, 3, 4), None),
    (2, "T+T^2*t+T*t^2+T^2*t^3+1*t^4", (1, 2, 3), None),
    (3, "T+1*t+T*t^2+1*t^3", (1, 2), None),
    (3, "T+T*t+T*t^2+T*t^3+1*t^4", (1, 2), None),
    (4, "T+z*t+T*t^2+z*t^3", (1, 2), None),
    (4, "T+T*t+z*t^2+1*t^3+1*t^4", (1, 2), None),
    (9, "T+1*t+1*t^3", (1,), None),
    (9, "T+z*t+1*t^2+T*t^4", (1,), None),
    (3, "T+1*t+T*t^2+1*t^3", (9,), 2),
    (9, "T+z*t+1*t^2+T*t^4", (5,), 1),
]


@pytest.mark.parametrize(
    "q,text,degrees,first", WINDOW_CASES, ids=[f"q{c[0]}-{c[1]}-{c[2]}" for c in WINDOW_CASES]
)
def test_recurrence_windows_are_the_powers_of_pi(q, text, degrees, first):
    """The windows of the motive recurrence at steps j deg p are Pi^j,
    j = 1..r-1: Pi's powers by matrix products over F_p[T] equal them."""
    psi = module_from_text(text, TOWERS[q])
    seen = 0
    for d in degrees:
        primes = enumerate_monic_irreducibles(psi.base, d)
        for p in islice(primes, first):
            if (psi.g[-1] % p).is_zero():
                continue
            red = reduce_at(psi, p)
            ctx, r = red.ctx, red.rank
            powers = red.motive[0]
            assert len(powers) == r - 1
            pi = cur = motive_frobenius(red)
            for window in powers:
                assert [[Poly(ctx, ctx.array_elems(x)) for x in row] for row in window] == cur
                cur = [[sum((cur[i][l] * pi[l][k] for l in range(r)), Poly.zero(ctx))
                        for k in range(r)] for i in range(r)]
            seen += 1
    assert seen


def test_rank1_has_no_b():
    psi = module_from_text("T+1*t", TOWERS[3])
    red = reduce_at(psi, poly_from_text("T+1", TOWERS[3]))
    assert motive_invariant_factors(red).factors == []
    assert b_invariants(red, weil_motive(red)) == []


# (q, psi_T, prime degrees, primes where a squarefree d certifies b = 1 at
# even q).  At even q, d = a_p^2 is squarefree only when a_p is a nonzero
# constant.
B_ROUTE_CASES = [
    (2, "T+1*t+1*t^2", (1, 2, 3, 4, 5, 6, 7, 8), 3),
    (4, "T+1*t+1*t^2", (1, 2, 3, 4), 16),
    (3, "T+T*t+1*t^2", (1, 2, 3), None),
    (5, "T+T*t+1*t^2", (1, 2), None),
    (9, "T+(z*T^2+1)*t+T*t^2", (1, 2), None),
]


@pytest.mark.parametrize(
    "q,text,degrees,certified", B_ROUTE_CASES, ids=[f"q{c[0]}" for c in B_ROUTE_CASES]
)
def test_b_invariants_route_in_rank_two(q, text, degrees, certified, monkeypatch):
    """``b_invariants`` in rank 2 equals the motive b on every prime, the
    lattice's wherever the squarefree-d certificate replaces the Smith form
    (and on every prime at odd q), and the conductor loop's at odd q.  At
    even q the certificate fires on ``certified`` primes."""
    psi = module_from_text(text, TOWERS[q])
    smith_forms = [0]
    motive = invariants.motive_invariant_factors

    def counted(red):
        smith_forms[0] += 1
        return motive(red)

    monkeypatch.setattr(invariants, "motive_invariant_factors", counted)
    fired = 0
    for red in _reductions(psi, degrees):
        before = smith_forms[0]
        b = b_invariants(red, weil_motive(red))
        cert = smith_forms[0] == before
        fired += cert
        assert b == motive(red).factors, (q, poly_to_text(red.prime))
        if cert or q % 2:
            assert b == invariant_factors_from_lattice(end_lattice_reduced(red)).factors
        if q % 2:
            inv = rank2_invariants_reduced(red)
            assert b == [inv.b_p] == [conductor_b_p(red, inv.a_p, inv.d)]
    if certified is not None:
        assert fired == certified
    else:
        assert fired


def _fake_motive(monkeypatch, matrix):
    """Put the rank-2 Pi ``matrix(ctx)``, entries in F_p[T], in place of the
    motive recurrence's window."""

    def motive(red):
        ctx, pi = red.ctx, matrix(red.ctx)
        depth = max(len(x.coeffs) for row in pi for x in row)
        powers = np.zeros((1, 2, 2, depth, ctx.degree), dtype=np.int64)
        for i, row in enumerate(pi):
            for k, x in enumerate(row):
                powers[0, i, k, : len(x.coeffs)] = ctx.coeff_array(x.coeffs)
        return powers, None

    monkeypatch.setattr(ReducedModule, "motive", property(motive))


def test_dependent_frobenius_powers_raise(monkeypatch):
    """A scalar Pi makes vec(I), vec(Pi) dependent: an implementation bug,
    raised and never returned as b = 0."""
    psi = module_from_text("T+1*t+1*t^2", TOWERS[3])
    red = reduce_at(psi, poly_from_text("T+1", TOWERS[3]))

    def scalar(ctx):
        T, zero = Poly.x(ctx), Poly.zero(ctx)
        return [[T, zero], [zero, T]]

    _fake_motive(monkeypatch, scalar)
    with pytest.raises(DrinfeldError, match="implementation bug"):
        motive_invariant_factors(red)


def test_b_outside_fq_t_raise(monkeypatch):
    """A Smith factor with a coefficient outside F_q cannot be a b; the
    projection to A raises."""
    tower = TOWERS[4]
    psi = module_from_text("T+1*t+1*t^2", tower)
    red = reduce_at(psi, poly_from_text("T^2+T+z", tower))  # F_p = F_16

    def outside(ctx):
        zero = Poly.zero(ctx)
        w = ctx.tower.gen(ctx)  # generates F_16, not in F_4
        return [[zero, zero], [zero, Poly(ctx, (w, ctx.one_elem()))]]

    _fake_motive(monkeypatch, outside)
    with pytest.raises(TowerMembershipError):
        motive_invariant_factors(red)


@pytest.mark.parametrize(
    "q,text,degrees",
    [(2, "T+1*t+1*t^3", (1, 2, 3)), (4, "T+T^2*t+T*t^2", (1, 2))],
    ids=["q2-rank3", "q4-rank2"],
)
def test_full_checks_compare_lattice_b_in_every_rank(q, text, degrees):
    """With the lattice checks on, a record outside odd-q rank 2 compares the
    lattice b's with the motive b's and records the agreement."""
    psi = module_from_text(text, TOWERS[q])
    options = SurveyOptions(with_lattice_checks=True)
    recs = [r for r in survey.run_survey(psi, degrees, options) if r.skipped is None]
    assert recs
    for rec in recs:
        assert "b_lattice_agreement" in rec.checks_passed and not rec.warnings
        plain = compute_record(psi, poly_from_text(rec.p, TOWERS[q]), SurveyOptions())
        assert plain.b_invariants == rec.b_invariants
        assert "b_lattice_agreement" not in plain.checks_passed


def test_full_checks_warn_when_the_lattice_disagrees(monkeypatch):
    tower = TOWERS[2]
    psi = module_from_text("T+1*t+1*t^3", tower)
    T = Poly.x(tower.base_field)
    monkeypatch.setattr(
        survey, "invariant_factors_from_lattice", lambda lat: InvariantFactors(factors=[T, T])
    )
    rec = compute_record(psi, T, SurveyOptions(with_lattice_checks=True))
    assert rec.warnings == ["lattice b disagrees with record b"]
    assert "b_lattice_agreement" not in rec.checks_passed


def test_invariants_command_takes_the_motive_route(capsys, monkeypatch):
    """The CLI ``invariants`` command in rank 3 prints the motive b's, which
    are the lattice's, and never builds the lattice."""
    tower = FieldTower(2)
    psi = module_from_text("T+1*t+T*t^2+1*t^3", tower)
    red = reduce_at(psi, poly_from_text("T^3+T+1", tower))
    lattice_b = invariant_factors_from_lattice(end_lattice_reduced(red)).factors
    want = [poly_to_text(b) for b in lattice_b]

    def no_lattice(red):
        raise AssertionError("the lattice is off the production path")

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "drinfeld":
            if mod.__dict__.get("end_lattice_reduced") is end_lattice_reduced:
                monkeypatch.setattr(mod, "end_lattice_reduced", no_lattice)
    assert main(["invariants", "--q", "2", "--psi", "T+1*t+T*t^2+1*t^3", "--p", "T^3+T+1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["b_invariants"] == want
    assert _nontrivial(lattice_b)


def test_b_first_criteria_take_the_motive_b_with_one_reduction(monkeypatch):
    """Outside odd-q rank 2 (here q = 2), ``b_p_first`` (hence ``jm_splits``)
    is the first motive b, and ``abhyankar_splits_mod`` reduces at p once."""
    from drinfeld import division

    tower = TOWERS[2]
    psi = module_from_text("T+T*t+1*t^2", tower)
    p = poly_from_text("T^3+T^2+1", tower)
    b1 = motive_invariant_factors(reduce_at(psi, p)).factors[0]
    assert poly_to_text(b1) == "T+1"
    assert division.b_p_first(psi, p) == b1
    assert division.jm_splits(psi, p, b1) and not division.jm_splits(psi, p, b1 * b1)
    calls = []
    monkeypatch.setattr(division, "reduce_at", lambda *a: calls.append(a) or reduce_at(*a))
    splits, report = division.abhyankar_splits_mod(psi, p)
    assert report["b_1"] == b1 and len(calls) == 1
