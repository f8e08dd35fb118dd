"""Survey records against committed golden output, the work one record does
on the rank-2 path, and per-record fault tolerance."""

import logging
import sys
from pathlib import Path

import pytest

from drinfeld import survey
from drinfeld.cli import main
from drinfeld.config import SurveyOptions
from drinfeld.errors import DrinfeldError
from drinfeld.fields import FieldTower
from drinfeld.textio import fq_from_text, module_from_text, poly_from_text

DATA = Path(__file__).parent / "data"

# (golden file, CLI survey arguments that produce it).  The rank-2 file has 32
# records, 4 of them Abhyankar-split, so it pins the T^2 | disc and
# square-witness branch; the rank-3 files pin the general-rank route.  The
# degree-5 file was written by the torsion + CRT route with the tower cap
# raised to 1024 (its splitting fields reach degree 315); the motive route
# reproduces it at the default cap.  The even-q rank-2 files pin the b route
# and the split-prime disc(P) outside odd q: at q = 2 (71 records, 9
# Abhyankar-split, 18 with b != 1) and at q = 4, where A = F_4[T] has e = 2
# (30 records).
GOLDEN = [
    ("survey_q3_t2_deg1-4.jsonl", ["--q", "3", "--psi", "T+0*t+1*t^2", "--deg", "1,2,3,4"]),
    ("survey_q2_r3_deg1-2.jsonl", ["--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "1,2"]),
    ("survey_q2_r3_deg5.jsonl", ["--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "5"]),
    ("survey_q2_t2_deg1-8.jsonl",
     ["--q", "2", "--psi", "T+1*t+1*t^2", "--deg", "1,2,3,4,5,6,7,8"]),
    ("survey_q4_t2_deg1-3.jsonl", ["--q", "4", "--psi", "T+1*t+1*t^2", "--deg", "1,2,3"]),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name,args", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_survey_matches_golden_file(name, args, jobs, capsys, monkeypatch):
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    assert main(["survey", *args, "--format", "json", "--jobs", str(jobs)]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count calls of module.name through every drinfeld namespace bound to it."""
    original = getattr(module, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "drinfeld":
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return count


@pytest.mark.parametrize("prime", ["T^4+T^3+2*T+1", "T^3+2*T+1"], ids=["split", "nonsplit"])
def test_rank2_record_builds_each_invariant_once(prime, monkeypatch):
    """An odd-q rank-2 record reduces at p once and builds each invariant
    once.  Its b_p never takes the conductor loop: no ``factorize``,
    ``squarefree_split`` or skew right-division.  Both run the motive
    recurrence once and never convert Pi to a matrix over F_p[T]
    (``motive_frobenius``).  The split prime has b_p = T, so d is not
    squarefree and b_p comes from the Smith form of the recurrence's window;
    the nonsplit prime has a squarefree d and needs no Smith form."""
    from drinfeld import invariants, modules, polys, skew

    tower = FieldTower(3, max_degree=64)
    psi = module_from_text("T+0*t+1*t^2", tower)
    p = poly_from_text(prime, tower)
    split = prime == "T^4+T^3+2*T+1"
    counts = {
        "reduce_at": _count_calls(monkeypatch, modules, "reduce_at"),
        "is_irreducible": _count_calls(monkeypatch, polys, "is_irreducible"),
        "rank2_invariants_reduced": _count_calls(monkeypatch, invariants, "rank2_invariants_reduced"),
        "weil_rank2_reduced": _count_calls(monkeypatch, invariants, "weil_rank2_reduced"),
        "weil_identity_holds": _count_calls(monkeypatch, invariants, "weil_identity_holds"),
        "motive_recurrence": _count_calls(monkeypatch, modules, "motive_recurrence"),
        "motive_frobenius": _count_calls(monkeypatch, modules, "motive_frobenius"),
        "factorize": _count_calls(monkeypatch, polys, "factorize"),
        "squarefree_split": _count_calls(monkeypatch, polys, "squarefree_split"),
        "skew_right_divmod": _count_calls(monkeypatch, skew, "skew_right_divmod"),
    }
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert rec.skipped is None and not rec.warnings
    assert rec.splits_abhyankar is split
    assert rec.b_invariants == (["T"] if split else ["1"])
    # the residue field proves p prime, so Rabin's test never runs; the Weil
    # route and the split prime's b_p read Pi off the one recurrence
    assert {k: c[0] for k, c in counts.items()} == {
        **dict.fromkeys(counts, 1), "is_irreducible": 0, "motive_frobenius": 0,
        "factorize": 0, "squarefree_split": 0, "skew_right_divmod": 0,
    }


def test_q5_record_reads_its_t_image_from_the_root_table(monkeypatch):
    """A q=5 record takes its T-image from the residue field's root table,
    built once by one walk over the Frobenius orbits: no ``lex_min_root``
    and no ``table_roots`` for it.  The one ``table_roots`` call left is the
    Abhyankar split test's."""
    from drinfeld import fields, polys

    tower = FieldTower(5, max_degree=64)
    psi = module_from_text("T+1*t+1*t^2", tower)
    p = poly_from_text("T^4+T^2+T+1", tower)
    counts = {
        "lex_min_root": _count_calls(monkeypatch, polys, "lex_min_root"),
        "table_roots": _count_calls(monkeypatch, polys, "table_roots"),
        "orbit_roots": _count_calls(monkeypatch, fields, "orbit_roots"),
    }
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert rec.skipped is None and not rec.warnings
    assert rec.splits_abhyankar is False
    assert {k: c[0] for k, c in counts.items()} == {
        "lex_min_root": 0, "table_roots": 1, "orbit_roots": 1,
    }


def test_rank3_record_takes_the_motive_route(monkeypatch):
    """A rank-3 record reduces at p once, checks the skew identity once,
    runs the motive recurrence once for both its Weil polynomial and its
    b's (Pi and Pi^2 are windows of it), never converts Pi to a matrix over
    F_p[T] (``motive_frobenius``) and never reaches the endomorphism
    lattice, torsion or CRT."""
    from drinfeld import invariants, modules, polys, torsion

    tower = FieldTower(2, max_degree=64)
    psi = module_from_text("T+1*t+1*t^3", tower)
    p = poly_from_text("T^5+T^3+T^2+T+1", tower)
    counts = {
        "reduce_at": _count_calls(monkeypatch, modules, "reduce_at"),
        "weil_motive": _count_calls(monkeypatch, invariants, "weil_motive"),
        "weil_identity_holds": _count_calls(monkeypatch, invariants, "weil_identity_holds"),
        "motive_recurrence": _count_calls(monkeypatch, modules, "motive_recurrence"),
        "motive_frobenius": _count_calls(monkeypatch, modules, "motive_frobenius"),
        "end_lattice_reduced": _count_calls(monkeypatch, invariants, "end_lattice_reduced"),
        "weil_general": _count_calls(monkeypatch, invariants, "weil_general"),
        "torsion_basis_reduced": _count_calls(monkeypatch, torsion, "torsion_basis_reduced"),
        "crt": _count_calls(monkeypatch, polys, "crt"),
    }
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert rec.skipped is None and not rec.warnings
    assert rec.b_invariants == ["1", "T+1"]
    assert {k: c[0] for k, c in counts.items()} == {
        "reduce_at": 1, "weil_motive": 1, "weil_identity_holds": 1, "motive_recurrence": 1,
        "motive_frobenius": 0, "end_lattice_reduced": 0, "weil_general": 0, "torsion_basis_reduced": 0, "crt": 0,
    }


def test_structure_oracle_takes_no_smith_form_on_rank2(monkeypatch):
    """The structure oracle runs by Krylov blocks and kernel ranks: an odd-q
    rank-2 record with a squarefree d takes no Smith form, one with a
    non-squarefree d exactly one (the motive gcd for b_p, with no skew
    right-division), and a rank-3 record one where its b's are nontrivial
    and none where two 2-minors of the motive matrix certify b = 1.
    Every record runs the motive recurrence once and never converts Pi to a
    matrix over F_p[T] (``motive_frobenius``)."""
    from drinfeld import amatrix, modules, skew
    from drinfeld.polys import poly_gcd

    tower3 = FieldTower(3, max_degree=64)
    psi2 = module_from_text("T+1*t+1*t^2", tower3)
    tower2 = FieldTower(2, max_degree=64)
    psi3 = module_from_text("T+1*t+1*t^3", tower2)
    calls = _count_calls(monkeypatch, amatrix, "smith_normal_form")
    motives = _count_calls(monkeypatch, modules, "motive_frobenius")
    recurrences = _count_calls(monkeypatch, modules, "motive_recurrence")
    divisions = _count_calls(monkeypatch, skew, "skew_right_divmod")

    def squarefree_d(rec):
        a_p, p = poly_from_text(rec.a_p, tower3), poly_from_text(rec.p, tower3)
        d = a_p * a_p - p.scale(tower3.from_int(4) * fq_from_text(rec.u_p, tower3))
        return poly_gcd(d, d.derivative()).is_one()

    # cyclic F_p and a squarefree d, then non-cyclic F_p, whose d_1 | b_p
    # makes d not squarefree
    for k, (prime, sqfree, b_p, smith) in enumerate([
        ("T^3+2*T+1", True, "1", 0), ("T^5+2*T^3+T^2+2*T+2", False, "T+2", 1),
    ], start=1):
        rec = survey.compute_record(psi2, poly_from_text(prime, tower3), SurveyOptions())
        assert "structure_oracle" in rec.checks_passed and not rec.warnings
        assert squarefree_d(rec) is sqfree and rec.b_invariants == [b_p]
        assert (calls[0], motives[0], recurrences[0], divisions[0]) == (smith, 0, k, 0)
    recurrences[0] = 0
    for k, (prime, b, smith) in enumerate([
        ("T^5+T^3+T^2+T+1", ["1", "T+1"], 1), ("T^4+T+1", ["1", "1"], 0),
    ], start=1):
        calls[0] = 0  # Smith forms of this record alone
        rec = survey.compute_record(psi3, poly_from_text(prime, tower2), SurveyOptions())
        assert "structure_oracle" in rec.checks_passed and not rec.warnings
        assert rec.b_invariants == b
        assert (calls[0], motives[0], recurrences[0]) == (smith, 0, k)


@pytest.mark.parametrize(
    "q,prime,rrefs",
    [(3, "T^3+2*T+1", 1), (5, "T^4+2", 1), (5, "T^4+2*T^2+3", 2)],
    ids=["q3-by-1", "q5-by-1", "q5-by-units"],
)
def test_cyclic_structure_oracle_is_one_elimination_per_start(q, prime, rrefs, monkeypatch):
    """On a cyclic F_p the oracle makes one rref per start tried: one when 1
    generates, two when only 1 + T + ... + T^(n-1) does (a pinned q = 5
    prime).  It factors nothing, builds no RowSpace and takes the matrix of
    psibar_T from the reduction's cached blocks."""
    from drinfeld import linalg, polys, torsion
    from drinfeld.modules import reduce_at

    tower = FieldTower(q, max_degree=64)
    psi = module_from_text("T+1*t+1*t^2", tower)
    rec = survey.compute_record(psi, poly_from_text(prime, tower), SurveyOptions())
    assert "structure_oracle" in rec.checks_passed and not rec.warnings
    red = reduce_at(psi, poly_from_text(prime, tower))
    counts = {
        "rref": _count_calls(monkeypatch, linalg, "rref"),
        "squarefree_decomposition": _count_calls(monkeypatch, polys, "squarefree_decomposition"),
        "factorize": _count_calls(monkeypatch, polys, "factorize"),
        "_linearized_operator": _count_calls(monkeypatch, torsion, "_linearized_operator"),
    }
    added = []
    add = linalg.RowSpace.add
    monkeypatch.setattr(linalg.RowSpace, "add", lambda self, v: added.append(1) or add(self, v))
    factors = torsion.module_structure_oracle_reduced(red)
    assert len(factors) == 1 and factors[0].degree() == red.deg_p
    assert {k: c[0] for k, c in counts.items()} == {
        "rref": rrefs, "squarefree_decomposition": 0, "factorize": 0, "_linearized_operator": 0,
    }
    assert added == []


def test_rank3_structure_check_rejects_a_wrong_oracle(monkeypatch):
    """Beyond odd-q rank 2, the oracle factors must multiply to P_p(1); factors
    of the right total degree alone do not pass."""
    from drinfeld.modules import reduce_at
    from drinfeld.polys import Poly, powint
    from drinfeld.torsion import module_structure_oracle_reduced

    tower = FieldTower(2, max_degree=64)
    psi = module_from_text("T+1*t+1*t^3", tower)
    p = poly_from_text("T^5+T^3+T^2+T+1", tower)
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert "structure_oracle" in rec.checks_passed and not rec.warnings

    def wrong(red):
        return [powint(Poly.x(red.source.base), red.deg_p)]

    red = reduce_at(psi, p)
    assert module_structure_oracle_reduced(red) != wrong(red)
    monkeypatch.setattr(survey, "module_structure_oracle_reduced", wrong)
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert "structure_oracle" not in rec.checks_passed
    assert rec.warnings == ["required check failed: structure_oracle"]


def test_rank3_survey_beyond_the_torsion_budget(capsys, deadline, monkeypatch):
    """Degrees 6 and 7 at q = 2: the torsion route had no auxiliary moduli for
    them within its degree budget, and every record now passes its checks."""
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    argv = ["survey", "--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "6,7", "--strict"]
    with deadline(60):
        assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9 + 18


def _fail(*args, **kwargs):
    raise RuntimeError("injected failure")


def test_unexpected_error_becomes_record_warning(monkeypatch, caplog, capsys):
    tower = FieldTower(3, max_degree=64)
    psi = module_from_text("T+1*t+1*t^2", tower)
    monkeypatch.setattr(survey, "module_structure_oracle_reduced", _fail)
    with caplog.at_level(logging.ERROR, logger="drinfeld.survey"):
        recs = list(survey.run_survey(psi, [1, 2], SurveyOptions(jobs=1)))
    assert len(recs) == 3 + 3
    for rec in recs:
        assert rec.warnings[0] == "error: RuntimeError: injected failure"
        assert rec.checks_passed == []
    assert len(caplog.records) == 6
    assert all(r.exc_info and r.exc_info[0] is RuntimeError for r in caplog.records)
    assert capsys.readouterr().out == ""
    with pytest.raises(DrinfeldError, match="strict mode"):
        list(survey.run_survey(psi, [1], SurveyOptions(strict=True)))


def test_unexpected_error_in_worker_is_kept_per_record(monkeypatch, caplog):
    monkeypatch.setattr(survey, "_WORKER_STATE", {})
    monkeypatch.setattr(survey, "module_structure_oracle_reduced", _fail)
    opt_kwargs = {"strict": False, "with_lattice_checks": False, "with_abhyankar": True,
                  "jobs": 1}
    survey._worker_init(3, 64, [[1], [1]], opt_kwargs)  # psi_T = T + tau + tau^2
    with caplog.at_level(logging.ERROR, logger="drinfeld.survey"):
        d = survey._worker_run([1, 1])  # p = T + 1
    assert d["p"] == "T+1" and d["skipped"] is None
    assert d["warnings"] == ["error: RuntimeError: injected failure"]
    assert len(caplog.records) == 1


def test_cli_strict_exits_2_on_unexpected_error(monkeypatch, capsys):
    monkeypatch.setattr(survey, "module_structure_oracle_reduced", _fail)
    argv = ["survey", "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--strict"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: injected failure" in captured.err


def test_cli_domain_error_exits_1(capsys):
    """A survey whose prime sieve exceeds SIEVE_LIMIT is a domain error, not a
    strict-mode verification failure: status 1 and an ``error:`` line."""
    argv = ["survey", "--q", "2", "--psi", "T+1*t+1*t^2", "--deg", "25"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a sieve over 2^25 monic polynomials")
