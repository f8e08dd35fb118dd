import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from drinfeld.config import SurveyOptions
from drinfeld.errors import DrinfeldError, EvenCharacteristicError, RankError
from drinfeld.polys import Poly, count_monic_irreducibles, enumerate_monic_irreducibles
from drinfeld.quotients import QuotRing
from drinfeld import survey
from drinfeld.fields import FieldTower
from drinfeld.survey import (
    CSV_COLUMNS,
    cm_example,
    density_report,
    noncm_truncated_sum,
    pgl2_order_mod_prime,
    pgl_order,
    run_survey,
)
from drinfeld.textio import module_from_text


def test_run_survey_counts(tower3, psi3):
    recs = list(run_survey(psi3, [1]))
    assert len(recs) == 3
    assert [r.p for r in recs] == ["T", "T+1", "T+2"]
    assert all(r.skipped is None for r in recs)
    for r in recs:
        assert "weil_identity" in r.checks_passed
        assert "structure_oracle" in r.checks_passed


def test_run_survey_bad_reduction_marker(tower3):
    psi = module_from_text("T+1*t+T*t^2", tower3)
    recs = list(run_survey(psi, [1]))
    assert recs[0].p == "T" and recs[0].skipped == "bad_reduction"
    assert recs[1].skipped is None


def test_run_survey_count_matches_necklace(tower3, psi3):
    recs = list(run_survey(psi3, [3]))
    assert len(recs) == count_monic_irreducibles(3, 3)


def test_survey_determinism_and_jobs(tower3, psi3):
    a = [json.dumps(r.to_dict()) for r in run_survey(psi3, [1, 2])]
    b = [json.dumps(r.to_dict()) for r in run_survey(psi3, [1, 2])]
    assert a == b
    c = [json.dumps(r.to_dict()) for r in run_survey(psi3, [1, 2], SurveyOptions(jobs=2))]
    assert a == c


def test_survey_pool_has_at_most_one_worker_per_prime(tower3, psi3, monkeypatch):
    """jobs=64 on the 3 primes of degree 1 asks the pool for 3 workers.  The
    fake executor runs the worker initializer and tasks in this process, so
    no process starts, and the records equal the serial ones."""
    asked = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(survey, "_WORKER_STATE", {})
    pooled = [r.to_dict() for r in run_survey(psi3, [1], SurveyOptions(jobs=64))]
    assert asked == [3]
    assert pooled == [r.to_dict() for r in run_survey(psi3, [1])]


def test_record_dict_equals_asdict(tower3, monkeypatch):
    """``to_dict`` gives what ``dataclasses.asdict`` gives, in CSV_COLUMNS
    order and with copied lists, on rank-2 and rank-3 records, a skipped
    (bad reduction) record and records with a warning."""
    recs = list(run_survey(module_from_text("T+1*t+T*t^2", tower3), [1, 2]))
    recs += run_survey(module_from_text("T+1*t+1*t^3", FieldTower(2)), [1, 2])

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(survey, "module_structure_oracle_reduced", fail)
    recs += run_survey(module_from_text("T+1*t+1*t^2", tower3), [1])
    assert any(r.skipped for r in recs) and any(r.warnings for r in recs)
    assert {len(r.psi) for r in recs} == {2, 3}
    for rec in recs:
        d = rec.to_dict()
        assert d == dataclasses.asdict(rec) and list(d) == CSV_COLUMNS
        for name, value in d.items():
            if isinstance(value, list):
                assert value is not getattr(rec, name)


def test_survey_lattice_checks(tower3, psi3):
    recs = list(run_survey(psi3, [2], SurveyOptions(with_lattice_checks=True)))
    assert all("b_lattice_agreement" in r.checks_passed for r in recs)


def test_cm_example_values(tower3):
    psi, c_k = cm_example(3, tower3)
    assert c_k == 1
    # j = T^2 (T+1)^4, g_1 = j, g_2 = j^3
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    j = T * T * (T + one) ** 4
    assert psi.g[0] == j
    assert psi.g[1] == j**3
    with pytest.raises(EvenCharacteristicError):
        cm_example(2)


def test_cm_supersingular_iff_T_nonsquare_small(tower3):
    psi, _ = cm_example(3, tower3)
    from drinfeld.invariants import rank2_invariants
    from drinfeld.modules import good_reduction_at, reduce_at

    F = tower3.base_field
    for d in (1, 2):
        for p in enumerate_monic_irreducibles(F, d):
            if not good_reduction_at(psi, p):
                continue
            red = reduce_at(psi, p)
            t_img = red.residue.t_image
            order = red.ctx.order
            is_square = (t_img ** ((order - 1) // 2)).is_one()
            inv = rank2_invariants(psi, p)
            assert inv.supersingular == (not is_square)


def test_density_report_cm(tower3):
    psi, c_k = cm_example(3, tower3)
    recs = list(run_survey(psi, [2], SurveyOptions(with_abhyankar=False)))
    est = density_report(recs, "cm_supersingular", c_k=c_k)
    assert est.predicted == Fraction(9, 4)
    est2 = density_report(recs, "bp_equals_one", c_k=c_k)
    assert est2.observed_count >= est.observed_count  # b=1 includes supersingular
    with pytest.raises(DrinfeldError):
        density_report(
            list(run_survey(psi, [1, 2], SurveyOptions(with_abhyankar=False))),
            "cm_supersingular",
        )


def test_cm_supersingular_density_needs_odd_q_rank_two(tower3):
    """The records carry the supersingular flag only in rank 2 at odd q; the
    cm_supersingular count raises a typed error elsewhere rather than
    reporting 0 (at q = 2 the one degree-2 prime T^2+T+1 has a_p = 0)."""
    from drinfeld.cli import main

    psi3 = module_from_text("T+1*t+1*t^3", tower3)
    recs = list(run_survey(psi3, [1], SurveyOptions(with_abhyankar=False)))
    with pytest.raises(RankError):
        density_report(recs, "cm_supersingular")
    args = ["density", "--q", "2", "--psi", "T+1*t+1*t^2", "--kind", "cm_supersingular"]
    psi2 = module_from_text("T+1*t+1*t^2", FieldTower(2))
    recs = list(run_survey(psi2, [2], SurveyOptions(with_abhyankar=False)))
    assert [(r.p, r.a_p, r.supersingular) for r in recs] == [("T^2+T+1", "0", None)]
    with pytest.raises(EvenCharacteristicError):
        density_report(recs, "cm_supersingular")
    assert main([*args, "--deg", "2"]) == 1
    assert main([*args[:-1], "bp_equals_one", "--deg", "2"]) == 0


def test_density_report_abhyankar(tower5):
    F5 = tower5.base_field
    psi5 = module_from_text("T+1*t+1*t^2", tower5)
    recs = list(run_survey(psi5, [1, 2]))
    est = density_report(recs, "abhyankar_split")
    assert est.predicted == Fraction(count_monic_irreducibles(5, 1) + count_monic_irreducibles(5, 2), 120)
    assert pgl_order(5, 2) == 120


def test_pgl2_orders():
    assert pgl2_order_mod_prime(3, 1) == 24
    assert pgl2_order_mod_prime(3, 2) == 720
    assert pgl_order(5, 2) == 120


def test_noncm_truncated_values():
    assert noncm_truncated_sum(3, 0) == Fraction(1)
    assert noncm_truncated_sum(3, 1) == Fraction(7, 8)
    assert noncm_truncated_sum(3, 2) == Fraction(841, 960)
    # monotone-bounded partial sums in (0, 1]
    for y in range(0, 4):
        s = noncm_truncated_sum(3, y)
        assert 0 < s <= 1


def test_noncm_against_exhaustive_enumeration(tower3):
    """Independent oracle: enumerate squarefree m, count #PGL_2(A/mA) brutally."""
    from drinfeld.polys import mobius

    F = tower3.base_field
    total = Fraction(1)  # m = 1
    for d in (1, 2):
        for code in range(3**d):
            coeffs = []
            c = code
            for _ in range(d):
                coeffs.append(F.dec_elem(c % 3))
                c //= 3
            m = Poly(F, coeffs + [F.one_elem()], normalize=False)
            mu = mobius(m)
            if mu == 0:
                continue
            total += Fraction(mu, _brute_pgl2(m))
    assert total == noncm_truncated_sum(3, 2)


def _brute_pgl2(m):
    ring = QuotRing(m)
    els = list(ring.elements())
    units = sum(1 for e in els if e.is_unit())
    gl = 0
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    if (a * d - b * c).is_unit():
                        gl += 1
    return gl // units


def test_survey_strict_mode_passes(tower3, psi3):
    # all checks hold for this module, so strict mode is quiet
    recs = list(run_survey(psi3, [1], SurveyOptions(strict=True)))
    assert len(recs) == 3


def test_survey_nonprime_q(tower9):
    """q = 9 exercises the e > 1 paths: z-power texts, F_q-block extraction."""
    from drinfeld.invariants import weil_rank2
    from drinfeld.modules import DrinfeldModule
    from drinfeld.amatrix import ring_det
    from drinfeld.quotients import mat_trace
    from drinfeld.torsion import torsion_basis

    F9 = tower9.base_field
    psi = DrinfeldModule(tower9, [Poly.one(F9), Poly.one(F9)])
    recs = list(run_survey(psi, [1], SurveyOptions()))
    assert len(recs) == 9
    assert all(r.skipped is None for r in recs)
    assert all("structure_oracle" in r.checks_passed for r in recs)
    assert all(r.u_p == "z^4" for r in recs)  # (-1)^1 N(1)^(-1) = -1 = z^4
    primes = list(enumerate_monic_irreducibles(F9, 1))
    p, a = primes[0], primes[1]
    tb = torsion_basis(psi, p, a)
    w = weil_rank2(psi, p)
    assert mat_trace(tb.frobenius_matrix, tb.ring) == tb.ring.reduce(-w.a_p)
    assert ring_det(tb.frobenius_matrix) == tb.ring.reduce(w.coeffs[0])


# ---------------------------------------------------------------------------
# CLI


def test_cli_examples(capsys):
    from drinfeld.cli import main

    assert main(["weil", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T"]) == 0
    assert capsys.readouterr().out.strip() == "x^2 + x + 2*T"
    assert main(["frobmat", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T", "--a", "T+1"]) == 0
    assert capsys.readouterr().out.strip() == "[[1,0],[2,1]]"
    assert main(["density", "--kind", "noncm", "--q", "3", "--max-deg", "1"]) == 0
    assert capsys.readouterr().out.strip() == "7/8"
    assert main(["density", "--kind", "noncm", "--q", "3", "--max-deg", "2"]) == 0
    assert capsys.readouterr().out.strip() == "841/960"


def test_cli_structure_split(capsys):
    from drinfeld.cli import main

    assert main(["structure", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"d1": "1", "d2": "T+1", "discarded_unit": "2"}
    assert main(["split", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T", "--a", "T+1"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["split", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T", "--m", "T+1"]) == 0
    assert capsys.readouterr().out.strip() == "false"  # b_p = 1, so J_m never splits
    assert main(["split", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T"]) == 1
    assert main([
        "split", "--q", "3", "--psi", "T+1*t+1*t^2", "--p", "T", "--a", "T+1", "--m", "T+1"
    ]) == 1


def test_cli_survey_formats(tmp_path, capsys):
    from drinfeld.cli import main

    out = tmp_path / "records.jsonl"
    assert main([
        "survey", "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--out", str(out)
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert list(first.keys())[:13] == [
        "q", "psi", "p", "deg_p", "a_p", "u_p", "b_invariants", "delta_p",
        "supersingular", "d1", "d2", "splits_abhyankar", "checks_passed",
    ]
    assert main([
        "survey", "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--format", "csv"
    ]) == 0
    csv_out = capsys.readouterr().out.strip().splitlines()
    assert csv_out[0].startswith("q,psi,p,deg_p,a_p,u_p,b_invariants")
    assert len(csv_out) == 4


def test_cli_survey_csv_quotes_a_warning_with_commas(capsys, monkeypatch):
    """An error warning whose message holds commas is one quoted CSV field:
    every parsed row has ``len(CSV_COLUMNS)`` fields."""
    import csv

    from drinfeld.cli import main

    def fail(*args, **kwargs):
        raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

    monkeypatch.setattr(survey, "module_structure_oracle_reduced", fail)
    assert main([
        "survey", "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--format", "csv",
        "--jobs", "1",
    ]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == CSV_COLUMNS and len(rows) == 4
    assert {len(row) for row in rows} == {len(CSV_COLUMNS)}
    warnings = [row[CSV_COLUMNS.index("warnings")] for row in rows[1:]]
    assert all("ValueError: operands could not be broadcast" in w for w in warnings)


def test_cli_rank1_survey_leaves_a_p_null(capsys):
    """A rank-1 Weil polynomial x + u_p p has no x^(r-1) coefficient apart
    from c_0, so the survey's a_p column stays null and u_p holds the unit."""
    from drinfeld.cli import main

    assert main(["survey", "--q", "3", "--psi", "T+1*t", "--deg", "1", "--format", "json"]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["p"], r["a_p"], r["u_p"]) for r in recs] == [
        ("T", None, "2"), ("T+1", None, "2"), ("T+2", None, "2"),
    ]
    assert main(["survey", "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--format", "json"]) == 0
    assert all(json.loads(line)["a_p"] is not None for line in capsys.readouterr().out.splitlines())


def test_cli_usage_errors(capsys):
    from drinfeld.cli import main

    assert main(["weil", "--q", "3"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["density", "--kind", "noncm", "--q", "3"]) == 1


def test_cli_closed_stdout_is_quiet():
    """A survey whose reader has gone (``drinfeld survey ... | head -1``) ends
    with no traceback and the exit status of a SIGPIPE stop, 128 + 13."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-m", "drinfeld.cli", "survey", "--q", "3",
           "--psi", "T+1*t+1*t^2", "--deg", "1,2,3"]
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the survey's first write meets a broken pipe
    try:
        proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_cm_example(capsys):
    from drinfeld.cli import main

    assert main(["cm-example", "--q", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c_K"] == 1
    assert out["psi"].startswith("T+(")
