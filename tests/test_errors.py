"""Error surfaces pinned by the contracts: caps, budgets, bad inputs."""

import pytest

from drinfeld.division import frobenius_class_matrix
from drinfeld.errors import (
    BadReductionError,
    ConfigurationError,
    EvenCharacteristicError,
    InconclusiveBasisError,
    NotIrreducibleError,
    ResourceLimitError,
)
from drinfeld.fields import TABLE_LIMIT, FieldTower
from drinfeld.invariants import weil_general
from drinfeld.modules import DrinfeldModule, ResidueField, good_reduction_at, reduce_at
from drinfeld.polys import Poly, is_irreducible
from drinfeld.textio import module_from_text, poly_from_text
from drinfeld.torsion import torsion_basis


def test_torsion_splitting_cap(monkeypatch, tower3, psi3):
    """psi3[T] splits over F_(3^8) at p = T+1: a tower cap of 7 stops the
    splitting-degree walk before any field is built, a cap of 8 admits it."""
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    monkeypatch.setattr(tower3, "max_degree", 7)
    with pytest.raises(ResourceLimitError, match=r"splitting degree of psi\[a\] exceeds 7"):
        torsion_basis(psi3, T + one, T)
    monkeypatch.setattr(tower3, "max_degree", 8)
    assert torsion_basis(psi3, T + one, T).splitting_s == 8


def test_torsion_tower_cap(psi3copy_small=None):
    from drinfeld.fields import FieldTower

    small = FieldTower(3, max_degree=4)
    F = small.base_field
    T, one = Poly.x(F), Poly.one(F)
    psi = DrinfeldModule(small, [one, one])
    with pytest.raises(ResourceLimitError):
        torsion_basis(psi, T + one, T)  # needs F_{3^8}, cap is 4


def test_weil_general_aux_budget(tower2, psi2_rank3):
    p = poly_from_text("T^6+T+1", tower2)  # needs total modulus degree 7
    assert is_irreducible(p)
    # at the per-modulus cap 2 over F_2 the moduli T^2, (T+1)^2, T^2+T+1 reach 6
    with pytest.raises(ConfigurationError):
        weil_general(psi2_rank3, p)


def test_even_q_rejected_for_class_matrix(tower2):
    F = tower2.base_field
    one = Poly.one(F)
    psi = DrinfeldModule(tower2, [one, one])
    with pytest.raises(EvenCharacteristicError):
        frobenius_class_matrix(psi, Poly.x(F), Poly.x(F) + one)


def test_reduction_needs_prime(tower3, psi3):
    F = tower3.base_field
    T = Poly.x(F)
    with pytest.raises(NotIrreducibleError):
        reduce_at(psi3, T * T)
    with pytest.raises(NotIrreducibleError):
        good_reduction_at(psi3, T * (T + Poly.one(F)))


def test_residue_field_certifies_the_prime(monkeypatch, tower3, psi3):
    """Where p does not divide g_r, the residue field is the prime test:
    T(T+1), T^2 and a product of two quadratics over F_3 are no keys of the
    field's root table.  Rabin's test is never reached."""
    from drinfeld import modules

    def no_rabin(p):
        raise AssertionError("Rabin's test ran")

    monkeypatch.setattr(modules, "is_irreducible", no_rabin)
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    for p in (T * (T + one), T * T, (T * T + one) * (T * T + T + Poly.constant(F.dec_elem(2)))):
        with pytest.raises(NotIrreducibleError):
            reduce_at(psi3, p)


@pytest.mark.parametrize(
    "factors",
    [["T^2+2", "T^2+3"], ["T^2+2", "T^2+2"], ["T+1", "T^3+T+1"]],
    ids=["two-quadratics", "square-of-a-prime", "linear-factor"],
)
def test_root_table_rejects_a_reducible_p(factors, monkeypatch):
    """On a table field a reducible monic p is no key of the root table, so
    ``reduce_at`` and ``ResidueField`` raise NotIrreducibleError without a
    root search or Rabin's test."""
    from drinfeld import modules, polys

    def no_search(*args, **kwargs):
        raise AssertionError("a root search or Rabin's test ran")

    searches = [(modules, "is_irreducible"), (modules, "lex_min_root"), (polys, "table_roots")]
    for mod, name in searches:
        monkeypatch.setattr(mod, name, no_search)
    tower = FieldTower(5)
    psi = module_from_text("T+1*t+1*t^2", tower)
    parts = [poly_from_text(f, tower) for f in factors]
    assert all(is_irreducible(f) for f in parts)
    p = parts[0] * parts[1]
    with pytest.raises(NotIrreducibleError):
        reduce_at(psi, p)
    with pytest.raises(NotIrreducibleError):
        ResidueField(tower, p)


@pytest.mark.parametrize(
    "factors",
    [["T^5+2*T+1", "T^5+T^4+T^2+1"], ["T^5+2*T+1", "T^5+2*T+1"], ["T+1", "T^9+2*T^3+T^2+T+2"]],
    ids=["two-quintics", "square-of-a-prime", "linear-factor"],
)
def test_own_modulus_rejects_a_reducible_p(factors, monkeypatch):
    """Above the table limit at prime q (here q = 3, degree 10) the residue
    field is F_q[x]/(p) certified by Rabin's test: a reducible p raises
    NotIrreducibleError with every root search patched to fail."""
    from drinfeld import modules, polys

    def no_search(*args, **kwargs):
        raise AssertionError("a root search ran")

    for mod, name in [(modules, "lex_min_root"), (polys, "lex_min_root"), (polys, "table_roots"),
                      (modules, "is_irreducible")]:
        monkeypatch.setattr(mod, name, no_search)
    tower = FieldTower(3)
    psi = module_from_text("T+1*t+1*t^2", tower)
    parts = [poly_from_text(f, tower) for f in factors]
    assert all(is_irreducible(f) for f in parts)
    p = parts[0] * parts[1]
    assert tower.q ** p.degree() > TABLE_LIMIT
    with pytest.raises(NotIrreducibleError):
        reduce_at(psi, p)
    with pytest.raises(NotIrreducibleError):
        ResidueField(tower, p)


def test_rabin_decides_where_no_residue_field_is_built(tower3):
    """A p dividing g_r, or one above the tower cap, takes Rabin's test: a
    reducible p raises NotIrreducibleError, a prime one BadReductionError or
    ResourceLimitError, as before."""
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    reducible = T * (T + one)
    psi = DrinfeldModule(tower3, [one, reducible * (T * T + one)])
    with pytest.raises(NotIrreducibleError):
        reduce_at(psi, reducible)
    with pytest.raises(BadReductionError):
        reduce_at(psi, T * T + one)
    small = FieldTower(3, max_degree=4)
    Fs = small.base_field
    Ts, ones = Poly.x(Fs), Poly.one(Fs)
    psi_small = DrinfeldModule(small, [ones, ones])
    with pytest.raises(NotIrreducibleError):
        reduce_at(psi_small, (Ts * Ts + ones) * (Ts * Ts * Ts + Ts + Ts + ones))
    with pytest.raises(ResourceLimitError):
        reduce_at(psi_small, poly_from_text("T^5+2*T+1", small))
    # above the table limit the residue field has its own modulus, under the same cap
    capped = FieldTower(3, max_degree=8)
    with pytest.raises(ResourceLimitError):
        ResidueField(capped, poly_from_text("T^9+2*T^3+T^2+T+2", capped))


def test_env_cap_override(monkeypatch, capsys):
    from drinfeld.cli import main

    # a degree-3 prime needs the residue field F_27; force a tiny cap through
    # the environment and watch the call fail...
    monkeypatch.setenv("DF_MAX_EXT_DEGREE", "2")
    rc = main(["weil", "--q", "3", "--psi", "T+1*t+1*t^3", "--p", "T^3+2*T+1"])
    assert rc == 1
    assert "exceeds the cap 2" in capsys.readouterr().err
    # ...and succeed once the cap is lifted
    monkeypatch.setenv("DF_MAX_EXT_DEGREE", "512")
    rc = main(["weil", "--q", "3", "--psi", "T+1*t+1*t^3", "--p", "T^3+2*T+1"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("x^3")


@pytest.mark.parametrize("cap", ["abc", "", "0", "-3", "2.5"])
def test_env_cap_must_be_a_positive_integer(cap, monkeypatch, capsys):
    from drinfeld.cli import main

    monkeypatch.setenv("DF_MAX_EXT_DEGREE", cap)
    rc = main(["weil", "--q", "3", "--psi", "T+1*t+1*t^3", "--p", "T^3+2*T+1"])
    assert rc == 1
    assert f"error: DF_MAX_EXT_DEGREE must be a positive integer, not {cap!r}" in capsys.readouterr().err


def test_strict_gate_raises():
    from drinfeld.config import SurveyOptions
    from drinfeld.errors import DrinfeldError
    from drinfeld.survey import SurveyRecord, _strict_gate

    rec = SurveyRecord(
        q=3, psi=["1", "1"], p="T", deg_p=1, a_p=None, u_p=None,
        b_invariants=[], delta_p=None, supersingular=None, d1=None, d2=None,
        splits_abhyankar=None, checks_passed=[], warnings=["required check failed: weil_identity"],
    )
    with pytest.raises(DrinfeldError):
        _strict_gate(rec, SurveyOptions(strict=True))
    _strict_gate(rec, SurveyOptions(strict=False))  # non-strict passes through


def test_field_tower_rejects_q_above_table_limit():
    from drinfeld.fields import TABLE_LIMIT, FieldTower

    # 4294967291 would overflow int64 products; 3037000453 would hang in the
    # lex search for a degree-2 modulus
    for q in (4294967291, 3037000453):
        with pytest.raises(ConfigurationError):
            FieldTower(q)
    assert TABLE_LIMIT == 1 << 14
    largest = 16381  # the largest prime q <= 2^14
    tower = FieldTower(largest)
    x = tower.from_int(largest - 1)
    assert (x * x).coords == (1,)


def test_largest_q_builds_its_extensions(deadline):
    """The modulus search runs Rabin's test on its candidates over F_p and
    enumerates no small factors first, so q = 16381 reaches its first
    extensions at once."""
    p = 16381
    tower = FieldTower(p)
    with deadline(20):
        F2, F3 = tower.field(2), tower.field(3)
    assert F2.fid.modulus == (2, 0, 1)  # x^2 + 2
    assert F3.fid.modulus == (2, 0, 0, 1)  # x^3 + 2
    y = tower.gen(F3)
    assert (y * y * y).coords == (p - 2, 0, 0)
    assert (tower.gen(F2) * tower.gen(F2)).coords == (p - 2, 0)


def test_q_at_the_table_limit_builds_and_above_it_is_refused(deadline):
    """q = 2^14 is the largest supported q: its tower builds, with log
    tables on F_q.  The next prime, 16411, and the next power of two,
    2^15, raise ConfigurationError before any field is built."""
    from drinfeld.fields import TABLE_LIMIT

    with deadline(20):
        tower = FieldTower(16384)
    assert tower.base_field.order == TABLE_LIMIT
    assert tower.dlog_z(tower.z_generator()) == 1
    for q in (16411, 32768):
        with deadline(1), pytest.raises(ConfigurationError):
            FieldTower(q)


@pytest.mark.parametrize("q", [2, 3, 16381])
def test_field_at_the_tower_cap_builds_and_above_it_is_refused(q, deadline):
    """A field of degree exactly the default cap (64 over the prime field)
    builds; one degree more raises ResourceLimitError at once."""
    tower = FieldTower(q)
    with deadline(20):
        F = tower.field(tower.max_degree)
    assert tower.max_degree == 64 and F.degree == 64
    with deadline(1), pytest.raises(ResourceLimitError):
        tower.field(tower.max_degree + 1)


def test_torsion_quotient_size_cap(capsys, deadline):
    """Rank 3 at q = 4 with a degree-2 modulus a = (T+1)^2 needs R = F_p[x]/(psibar_a)
    of prime dimension 4^6 * 2 = 8192; the cap refuses it before any matrix is
    built.  ``weil_general`` takes two linear moduli there instead, and the
    CLI takes the motive route and needs no torsion at all."""
    from drinfeld.cli import main
    from drinfeld.invariants import weil_motive
    from drinfeld.torsion import MAX_QUOTIENT_DIM

    assert MAX_QUOTIENT_DIM < 8192
    tower = FieldTower(4)
    psi = module_from_text("T+1*t+1*t^3", tower)
    T = Poly.x(tower.base_field)
    with deadline(20):
        with pytest.raises(ResourceLimitError, match=f"prime dimension 8192.*cap {MAX_QUOTIENT_DIM}"):
            torsion_basis(psi, T, poly_from_text("T^2+1", tower))
        assert weil_general(psi, T) == weil_motive(reduce_at(psi, T))
        rc = main(["weil", "--q", "4", "--psi", "T+1*t+1*t^3", "--p", "T"])
    assert rc == 0
    assert capsys.readouterr().out == "x^3 + x + T\n"


def test_torsion_quotient_cap_edge(monkeypatch, deadline, tower2, psi2_rank3):
    """Rank 3 at q = 2 with deg a = 4: at p = T+1 the quotient has prime
    dimension 2^12 = 4096, exactly the cap, and passes the guard to the
    splitting degree; at p = T^2+T+1 it has 8192 and is refused before the
    splitting degree or any torsion matrix is built."""
    from drinfeld import torsion

    class Reached(Exception):
        pass

    def sentinel(*args):
        raise Reached

    F = tower2.base_field
    a = poly_from_text("T^4", tower2)
    assert torsion.MAX_QUOTIENT_DIM == 4096
    monkeypatch.setattr(torsion, "_splitting_degree", sentinel)
    monkeypatch.setattr(torsion, "_linearized_operator", sentinel)
    with deadline(20):
        with pytest.raises(Reached):
            torsion_basis(psi2_rank3, Poly.x(F) + Poly.one(F), a)
        with pytest.raises(ResourceLimitError, match="prime dimension 8192, above the cap 4096"):
            torsion_basis(psi2_rank3, poly_from_text("T^2+T+1", tower2), a)


def _lattice_windows(monkeypatch, factor):
    """Set the window cap factor; returns the list of windows D for which the
    commutant is computed."""
    from drinfeld import invariants

    monkeypatch.setattr(invariants, "WINDOW_CAP_FACTOR", factor)
    seen = []
    inner = invariants.Commutant.solutions

    def spy(commutant, D):
        seen.append(D)
        return inner(commutant, D)

    monkeypatch.setattr(invariants.Commutant, "solutions", spy)
    return seen


def test_end_lattice_window_cap_first_check(monkeypatch, tower3, psi3):
    from drinfeld.invariants import end_lattice

    seen = _lattice_windows(monkeypatch, 0)
    with pytest.raises(InconclusiveBasisError, match="window cap 0"):
        end_lattice(psi3, Poly.x(tower3.base_field))
    assert seen == []


def test_end_lattice_window_cap_stability_check(monkeypatch, tower3, psi3):
    """At p = T the first window D = 5 fits the cap 1 * (1 + 2^2) = 5; its
    stability window 9 does not, so the lattice raises before it solves any
    window."""
    from drinfeld.invariants import end_lattice

    seen = _lattice_windows(monkeypatch, 1)
    with pytest.raises(InconclusiveBasisError, match="window cap 5"):
        end_lattice(psi3, Poly.x(tower3.base_field))
    assert seen == []


def test_end_lattice_window_cap_is_a_record_warning(monkeypatch, tower2, psi2_rank3, capsys):
    """The lattice runs in a survey only under the lattice checks; there its
    window cap is a record warning."""
    from drinfeld.config import SurveyOptions
    from drinfeld.survey import run_survey

    _lattice_windows(monkeypatch, 0)
    recs = list(run_survey(psi2_rank3, [1], SurveyOptions(with_lattice_checks=True)))
    assert [r.p for r in recs] == ["T", "T+1"]
    for rec in recs:
        assert rec.warnings == ["error: no stable lattice basis within the window cap 0"]
        assert rec.b_invariants == ["1", "1"]  # the motive b's, set before the lattice runs
        assert rec.checks_passed == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["survey", "density"])
@pytest.mark.parametrize("deg", ["1,x", "a", "0", "1,-2", ","])
def test_malformed_deg_is_a_usage_error(capsys, command, deg):
    from drinfeld.cli import main

    argv = [command, "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", deg]
    if command == "density":
        argv += ["--kind", "bp_equals_one"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --deg ")


@pytest.mark.parametrize("c_k", ["0", "-1"])
def test_nonpositive_c_k_is_a_usage_error(capsys, c_k):
    from drinfeld.cli import main
    from drinfeld.errors import DrinfeldError
    from drinfeld.survey import density_report

    argv = ["density", "--kind", "bp_equals_one", "--q", "3", "--psi", "T+1*t+1*t^2",
            "--deg", "1", "--c-k", c_k]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --c-k ")
    with pytest.raises(DrinfeldError, match="c_K must be a positive integer"):
        density_report([], "bp_equals_one", c_k=int(c_k))


@pytest.mark.parametrize("command", ["survey", "density"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_nonpositive_jobs_is_a_usage_error(capsys, command, jobs):
    from drinfeld.cli import main

    argv = [command, "--q", "3", "--psi", "T+1*t+1*t^2", "--deg", "1", "--jobs", jobs]
    if command == "density":
        argv += ["--kind", "bp_equals_one"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --jobs ")


def test_density_with_every_prime_skipped_is_an_error(capsys):
    """psi = T + t + (T^2+T) t^2 has bad reduction at both primes of degree
    1, so a per-degree density has no record to count."""
    from drinfeld.cli import main
    from drinfeld.config import SurveyOptions
    from drinfeld.errors import DrinfeldError
    from drinfeld.survey import density_report, run_survey

    psi = module_from_text("T+1*t+(T^2+T)*t^2", FieldTower(2))
    records = list(run_survey(psi, [1], SurveyOptions()))
    assert [r.skipped for r in records] == ["bad_reduction"] * 2
    with pytest.raises(DrinfeldError, match="no prime of good reduction among the 2 surveyed primes"):
        density_report(records, "bp_equals_one")
    argv = ["density", "--q", "2", "--psi", "T+1*t+(T^2+T)*t^2", "--deg", "1",
            "--kind", "bp_equals_one"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no prime of good reduction among the 2 surveyed primes\n"
