import pytest

from drinfeld.amatrix import rational_canonical_form
from drinfeld.division import (
    abhyankar_poly,
    abhyankar_splits_mod,
    frobenius_class_matrix,
    jm_splits,
    module_structure,
    splits_completely,
)
from drinfeld.errors import CoprimalityError, DrinfeldError, RankError
from drinfeld.modules import DrinfeldModule
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.quotients import mat_is_identity, mat_is_scalar
from drinfeld.textio import matrix_to_text, poly_to_text
from drinfeld.torsion import module_structure_oracle, torsion_basis


def test_frobenius_class_matrix_example(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    mat = frobenius_class_matrix(psi3, T, T + one)
    assert matrix_to_text(mat.entries) == "[[1,0],[2,1]]"


def test_class_matrix_identity_case(tower3):
    """a_p = -2 and b_p = 0 mod a produce the identity matrix."""
    from drinfeld.invariants import Rank2Invariants
    from drinfeld.division import class_matrix_from_invariants

    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    # synthetic invariants satisfying the congruences mod a = T+1
    a = T + one
    a_p = Poly.from_ints(F, [1])  # 1 = -2 mod 3
    b_p = a  # b = 0 mod a
    u_p = tower3.from_int(2)
    four = Poly.from_ints(F, [4 % 3])
    d = a_p * a_p - (T.scale(u_p * tower3.from_int(4 % 3)) if False else Poly.zero(F))
    # build d = b^2 delta consistently: pick p with u_p p = (a_p^2 - d)/4
    delta = Poly.one(F)
    d = b_p * b_p * delta
    inv = Rank2Invariants(a_p=a_p, u_p=u_p, d=d, b_p=b_p, delta_p=delta, supersingular=False)
    psi_fake = DrinfeldModule(tower3, [one, one])
    # trace/det invariants are checked internally; bypass them by direct assembly
    base = psi_fake.base
    inv2 = (base.one_elem() + base.one_elem()).inv()
    from drinfeld.quotients import QuotRing

    ring = QuotRing(a)
    m00 = ring.reduce((-a_p).scale(inv2))
    m01 = ring.reduce((delta * b_p).scale(inv2))
    m10 = ring.reduce(b_p.scale(inv2))
    entries = [[m00, m01], [m10, m00]]
    assert mat_is_identity(entries)


def test_splits_completely_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    # a_p = 1 = -2 mod (T+1) but b_p = 1 != 0
    assert not splits_completely(psi3, T, T + one)
    # b_p = 1 means no positive-degree a can split
    for d in (1, 2):
        for a in enumerate_monic_irreducibles(F, d):
            if not (a % T).is_zero():
                assert not splits_completely(psi3, T, a)


def test_splits_matches_torsion_identity_oracle(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    # composite moduli included: "== identity" needs no conjugacy care
    for p in enumerate_monic_irreducibles(F, 2):
        for a in [T, T + one, T * T, T * (T + one)]:
            tb = torsion_basis(psi3, p, a)
            assert splits_completely(psi3, p, a) == mat_is_identity(tb.frobenius_matrix)


def test_module_structure_example(tower3, psi3):
    F = tower3.base_field
    T = Poly.x(F)
    ms = module_structure(psi3, T)
    assert poly_to_text(ms.d1) == "1"
    assert poly_to_text(ms.d2) == "T+1"
    assert ms.discarded_unit == tower3.from_int(2)
    oracle = module_structure_oracle(psi3, T)
    assert [poly_to_text(f) for f in oracle] == ["T+1"]


def test_module_structure_degree_count(tower3, psi3):
    F = tower3.base_field
    for d in (1, 2, 3):
        for p in enumerate_monic_irreducibles(F, d):
            ms = module_structure(psi3, p)
            assert (ms.d1 * ms.d2).degree() == d
            assert (ms.d2 % ms.d1).is_zero()
            inv_list = [f for f in (ms.d1, ms.d2) if f.degree() >= 1]
            oracle = module_structure_oracle(psi3, p)
            assert [f.coeffs for f in oracle] == [f.coeffs for f in inv_list]


def test_jm_splits_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    # b_p = 1 for these primes: never splits at positive-degree m
    for p in [T, T + one]:
        for m in enumerate_monic_irreducibles(F, 1):
            if (m % p).is_zero():
                continue
            assert not jm_splits(psi3, p, m)
    with pytest.raises(CoprimalityError):
        jm_splits(psi3, T, T)


def test_jm_splits_scalar_oracle(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    for p in enumerate_monic_irreducibles(F, 2):
        for m in [T, T + one, T + one + one]:
            tb = torsion_basis(psi3, p, m)
            assert jm_splits(psi3, p, m) == mat_is_scalar(tb.frobenius_matrix)


def test_thm11_matrix_vs_torsion_rcf_spot(tower3, psi3):
    """RCF(class matrix mod l) = RCF(torsion matrix) for a couple of pairs."""
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    for p, ell in [(T, T + one), (T + one, T), (T * T + one, T)]:
        mat = frobenius_class_matrix(psi3, p, ell)
        tb = torsion_basis(psi3, p, ell)
        lift1 = [[e.rep for e in row] for row in mat.entries]
        lift2 = [[e.rep for e in row] for row in tb.frobenius_matrix]
        c1, f1 = rational_canonical_form(lift1, ell)
        c2, f2 = rational_canonical_form(lift2, ell)
        assert f1 == f2
        assert all(x == y for r1, r2 in zip(c1, c2) for x, y in zip(r1, r2))


def test_abhyankar_poly_examples(tower3, tower5, psi3):
    F = tower3.base_field
    f = abhyankar_poly(psi3)
    assert f.degree() == 4  # (3^2-1)/(3-1)
    from drinfeld.textio import x_poly_to_text

    assert x_poly_to_text(f.coeffs, "+") == "x^4+x+T"
    # q = 5: f = g x^6 + x + T
    F5 = tower5.base_field
    g = Poly.from_ints(F5, [3])
    psi5 = DrinfeldModule(tower5, [Poly.one(F5), g])
    f5 = abhyankar_poly(psi5)
    assert f5.degree() == 6
    assert f5.coeffs[6] == g and f5.coeffs[1] == Poly.one(F5)
    # rank r: top exponent (q^r-1)/(q-1)
    psi_r3 = DrinfeldModule(tower3, [Poly.one(F), Poly.zero(F), Poly.one(F)])
    assert abhyankar_poly(psi_r3).degree() == (3**3 - 1) // 2


def test_abhyankar_splits_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    splits, report = abhyankar_splits_mod(psi3, T + one)
    assert splits is False
    assert poly_to_text(report["b_1"]) == "1"
    with pytest.raises(DrinfeldError):
        abhyankar_splits_mod(psi3, T)


def test_abhyankar_consistency_small_scan(tower3, psi3):
    F = tower3.base_field
    T = Poly.x(F)
    for d in (1, 2):
        for p in enumerate_monic_irreducibles(F, d):
            if p == T:
                continue
            splits, report = abhyankar_splits_mod(psi3, p)  # raises on inconsistency
            if splits:
                assert (report["disc"] % (T * T)).is_zero()


def test_b1_criteria_need_rank_two(tower3):
    """J_m = F in rank 1, and the b_{p,1} criteria assume rank >= 2: each
    entry point raises RankError rather than answering."""
    from drinfeld.division import abhyankar_splits_reduced, b_p_first
    from drinfeld.invariants import weil_motive
    from drinfeld.modules import reduce_at

    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    psi1 = DrinfeldModule(tower3, [one])
    p = T + one
    red = reduce_at(psi1, p)
    for call in (
        lambda: jm_splits(psi1, p, T),
        lambda: b_p_first(psi1, p),
        lambda: abhyankar_splits_mod(psi1, p),
        lambda: abhyankar_splits_reduced(red, one, weil_motive(red)),
    ):
        with pytest.raises(RankError):
            call()


def test_rank1_commands(capsys):
    """A rank-1 survey skips the Abhyankar stage and passes --strict; `split
    --m` raises the typed rank error."""
    import json

    from drinfeld.cli import main

    args = ["survey", "--q", "3", "--psi", "T+1*t", "--deg", "1,2", "--format", "json"]
    assert main([*args, "--strict"]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == 6
    assert all(not r["warnings"] and r["splits_abhyankar"] is None for r in recs)
    assert all(r["checks_passed"][0] == "weil_identity" for r in recs)
    assert main(["split", "--q", "3", "--psi", "T+1*t", "--p", "T+1", "--m", "T"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the b_{p,1} criteria need rank >= 2" in captured.err


def test_abhyankar_poly_is_built_once_per_module(tower3, monkeypatch):
    """A survey reduces f_psi at every prime but builds and verifies it once."""
    from drinfeld import division
    from drinfeld.config import SurveyOptions
    from drinfeld.survey import run_survey

    calls = []
    verify = division._verify_abhyankar_identity
    monkeypatch.setattr(
        division, "_verify_abhyankar_identity", lambda psi, f: calls.append(1) or verify(psi, f)
    )
    one = Poly.one(tower3.base_field)
    psi = DrinfeldModule(tower3, [one, one])
    recs = list(run_survey(psi, [1, 2], SurveyOptions()))
    assert sum(r.splits_abhyankar is not None for r in recs) == 5  # the 6 primes but T
    assert len(calls) == 1
    assert abhyankar_poly(psi) is abhyankar_poly(psi)
