from itertools import islice

import numpy as np
import pytest

from drinfeld.config import SurveyOptions
from drinfeld.errors import EvenCharacteristicError, RankError
from drinfeld.fields import FieldTower
from drinfeld.invariants import (
    WeilPolynomial,
    conductor_b_p,
    disc_check,
    end_lattice,
    invariant_factors,
    rank2_invariants,
    rank2_invariants_reduced,
    u_invariant,
    weil_general,
    weil_identity_holds,
    weil_motive,
    weil_rank2,
)
from drinfeld.modules import DrinfeldModule, reduce_at
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.skew import SkewPoly, skew_commutes
from drinfeld.survey import compute_record
from drinfeld.textio import module_from_text, poly_from_text, poly_to_text, weil_to_text


def test_u_invariant_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    assert u_invariant(psi3, T) == tower3.from_int(2)
    assert u_invariant(psi3, T + one) == tower3.from_int(2)
    # g_2 = 1, even degree prime: u = +1
    assert u_invariant(psi3, T * T + one) == tower3.one()
    with pytest.raises(RankError):
        u_invariant(DrinfeldModule(tower3, [one]), T)


def test_weil_rank2_examples(tower3, psi3, psi3_nog1):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    w = weil_rank2(psi3, T)
    assert weil_to_text(w) == "x^2 + x + 2*T"
    assert weil_identity_holds(reduce_at(psi3, T), w)
    w2 = weil_rank2(psi3_nog1, T)
    assert w2.a_p.is_zero()
    assert weil_to_text(w2) == "x^2 + 2*T"
    w3 = weil_rank2(psi3, T + one)
    assert poly_to_text(w3.a_p) == "1"
    assert poly_to_text(w3.coeffs[0]) == "2*T+2"
    assert weil_identity_holds(reduce_at(psi3, T + one), w3)


@pytest.mark.parametrize(
    "tower_name,psi_text,p_text",
    [
        ("tower3", "T+1*t+1*t^2", "T"),
        ("tower3", "T+1*t+1*t^2", "T^2+1"),
        ("tower3", "T+1*t+1*t^2", "T^10+2*T^2+1"),  # F_p above the table limit
        ("tower3", "T+1*t^2", "T^3+2*T+1"),  # supersingular: a_p = 0
        ("tower2", "T+1*t+1*t^3", "T"),
        ("tower2", "T+1*t+1*t^3", "T^3+T+1"),
        ("tower2", "T+1*t+T*t^2+1*t^3", "T^4+T+1"),
    ],
)
def test_weil_identity_rejects_wrong_coefficients(request, tower_name, psi_text, p_text):
    """The skew identity holds for P_p and fails once a_p (the x^(r-1)
    coefficient) is raised by 1, once any coefficient is, and once c_0 = u p
    takes another unit u."""
    tower = request.getfixturevalue(tower_name)
    psi = module_from_text(psi_text, tower)
    red = reduce_at(psi, poly_from_text(p_text, tower))
    weil = weil_motive(red)
    assert weil_identity_holds(red, weil)
    one = Poly.one(tower.base_field)
    for i in range(psi.rank):
        coeffs = list(weil.coeffs)
        coeffs[i] = coeffs[i] + one
        wrong = WeilPolynomial(prime=weil.prime, coeffs=tuple(coeffs), unit=weil.unit)
        assert not weil_identity_holds(red, wrong), i
    for u in tower.base_field.elements():
        if u.is_zero() or u == weil.unit:
            continue
        coeffs = (red.prime.scale(u),) + weil.coeffs[1:]
        assert not weil_identity_holds(red, WeilPolynomial(prime=weil.prime, coeffs=coeffs, unit=u))


def _identity_by_sums(red, weil) -> bool:
    """The skew identity as tau^(n r) + sum_i psibar(c_i) tau^(n i), one
    ``psibar_array`` Horner pass per coefficient: the oracle of the one-pass
    ``weil_identity_holds``."""
    n, r = red.deg_p, weil.rank
    terms = [(n * i, red.psibar_array(c)) for i, c in enumerate(weil.coeffs)]
    rows = max([n * r + 1] + [s + len(x) for s, x in terms])
    acc = np.zeros((rows, red.ctx.degree), dtype=np.int64)
    acc[n * r, 0] = 1
    for s, x in terms:
        acc[s : s + len(x)] += x
    return not (acc % red.ctx.char).any()


# (q, psi_T, prime degrees, first primes taken per degree): ranks 2-4 at
# q = 2, 3, 4, ranks 2-3 at q = 5, 9, and F_(3^10), F_(3^9) above the
# log-table limit
IDENTITY_CASES = [
    (2, "T+1*t+1*t^2", (1, 2, 3, 4), None),
    (2, "T+1*t+1*t^3", (1, 2, 3, 4), None),
    (2, "T+T^2*t+T*t^2+T^2*t^3+1*t^4", (1, 2, 3), None),
    (3, "T+1*t+1*t^2", (1, 2, 3), None),
    (3, "T+1*t+T*t^2+1*t^3", (1, 2), None),
    (3, "T+T*t+T*t^2+T*t^3+1*t^4", (1, 2), None),
    (4, "T+T^2*t+T*t^2", (1, 2), None),
    (4, "T+z*t+T*t^2+z*t^3", (1, 2), None),
    (4, "T+T*t+z*t^2+1*t^3+1*t^4", (1,), None),
    (5, "T+T*t+1*t^2", (1, 2), None),
    (5, "T+T*t+1*t^2+1*t^3", (1, 2), None),
    (9, "T+(z*T^2+1)*t+T*t^2", (1,), None),
    (9, "T+1*t+1*t^3", (1,), None),
    (3, "T+1*t+1*t^2", (10,), 2),
    (3, "T+1*t+T*t^2+1*t^3", (9,), 1),
]


@pytest.mark.parametrize(
    "q,text,degrees,first", IDENTITY_CASES,
    ids=[f"q{c[0]}-{c[1]}-{c[2]}" for c in IDENTITY_CASES],
)
def test_one_pass_identity_matches_the_sum_of_psibar_images(q, text, degrees, first):
    """The one Horner pass of ``weil_identity_holds`` and the sum of the
    psibar(c_i) tau^(n i) both accept P_p and both reject P_p with any c_j
    raised by 1 or by T p."""
    tower = FieldTower(q, max_degree=256)
    psi = module_from_text(text, tower)
    T, one = Poly.x(tower.base_field), Poly.one(tower.base_field)
    seen = 0
    for d in degrees:
        for p in islice(enumerate_monic_irreducibles(psi.base, d), first):
            if (psi.g[-1] % p).is_zero():
                continue
            red = reduce_at(psi, p)
            weil = weil_motive(red)
            assert weil_identity_holds(red, weil) and _identity_by_sums(red, weil)
            for j in range(psi.rank):
                for delta in (one, T * p):
                    coeffs = list(weil.coeffs)
                    coeffs[j] = coeffs[j] + delta
                    wrong = WeilPolynomial(prime=weil.prime, coeffs=tuple(coeffs), unit=weil.unit)
                    assert not weil_identity_holds(red, wrong), (poly_to_text(p), j, delta)
                    assert not _identity_by_sums(red, wrong), (poly_to_text(p), j, delta)
            seen += 1
    assert seen


def test_production_path_makes_no_skew_products(monkeypatch, tower3, tower2):
    """Survey records (lattice checks on), the skew identity, psibar_a and
    the endomorphism lattice run on prime-coordinate arrays:
    ``SkewPoly.__mul__`` is only the tests' oracle."""
    calls = []
    oracle_mul = SkewPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return oracle_mul(self, other)

    options = SurveyOptions(with_lattice_checks=True)
    cases = [
        (tower3, "T+1*t+1*t^2", ["T", "T^2+1", "T^3+2*T+1"]),
        (tower2, "T+1*t+1*t^3", ["T", "T^2+T+1", "T^3+T+1"]),
    ]
    for tower, psi_text, primes in cases:
        psi = module_from_text(psi_text, tower)
        for p_text in primes:
            p = poly_from_text(p_text, tower)
            monkeypatch.setattr(SkewPoly, "__mul__", counted)
            rec = compute_record(psi, p, options)
            red = reduce_at(psi, p)
            red.psibar_of(p + Poly.one(tower.base_field))
            lat = end_lattice(psi, p)
            monkeypatch.undo()
            assert not calls and not rec.warnings, (psi_text, p_text)
            # the oracle: pi = tau^deg p from the lattice coordinates
            acc = SkewPoly.zero(red.ctx)
            for coeff, e in zip(lat.pi_coords, lat.basis):
                acc = acc + red.psibar_of(coeff) * e
            assert acc == SkewPoly.tau_power(red.ctx, red.deg_p)


def test_weil_rank2_rh_bound(tower3, psi3):
    F = tower3.base_field
    for d in (1, 2, 3):
        for p in enumerate_monic_irreducibles(F, d):
            w = weil_rank2(psi3, p)
            assert 2 * w.a_p.degree() <= d


def test_weil_general_examples(tower2, psi2_rank3):
    F = tower2.base_field
    T = Poly.x(F)
    w = weil_general(psi2_rank3, T)
    assert [poly_to_text(c) for c in w.coeffs] == ["T", "1", "0"]
    assert w.unit.is_one()


def test_weil_general_agrees_with_rank2(tower3, psi3):
    F = tower3.base_field
    for d in (1, 2):
        for p in enumerate_monic_irreducibles(F, d):
            assert weil_general(psi3, p).coeffs == weil_rank2(psi3, p).coeffs


def test_aux_moduli_take_a_second_prime_before_a_square(tower9, deadline):
    """At q = 9 the two cheapest coprime moduli are T and T + z^4 (81 torsion
    points each), not T^2, whose torsion quotient is beyond the dimension cap."""
    from drinfeld.invariants import _aux_moduli, weil_motive
    from drinfeld.textio import poly_from_text

    psi = module_from_text("T+1*t+1*t^2", tower9)
    p = poly_from_text("T+1", tower9)
    assert [poly_to_text(m) for m in _aux_moduli(psi, p, 2, 2)] == ["T", "T+z^4"]
    with deadline(10):
        w = weil_general(psi, p)
    m = weil_motive(reduce_at(psi, p))
    assert w.coeffs == m.coeffs and w.unit == m.unit


def test_rank3_torsion_trace_det_consistency(tower2, psi2_rank3):
    """Trace and det of the torsion matrix match -c_{r-1} and (-1)^r c_0."""
    from drinfeld.amatrix import ring_det
    from drinfeld.quotients import QuotRing, mat_trace
    from drinfeld.torsion import torsion_basis

    F = tower2.base_field
    T, one = Poly.x(F), Poly.one(F)
    for p in (T, T + one, T * T + T + one):
        weil = weil_general(psi2_rank3, p)
        for m in (T, T + one):
            if (m % p).is_zero():
                continue
            tb = torsion_basis(psi2_rank3, p, m)
            ring = tb.ring
            assert mat_trace(tb.frobenius_matrix, ring) == ring.reduce(-weil.coeffs[2])
            assert ring_det(tb.frobenius_matrix) == ring.reduce(-weil.coeffs[0])


def test_rank2_invariants_examples(tower3, psi3, psi3_nog1):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    inv = rank2_invariants(psi3, T)
    assert poly_to_text(inv.b_p) == "1"
    assert poly_to_text(inv.delta_p) == "T+1"
    assert not inv.supersingular
    inv2 = rank2_invariants(psi3_nog1, T)
    assert inv2.supersingular
    assert poly_to_text(inv2.b_p) == "1"
    assert poly_to_text(inv2.delta_p) == "T"
    assert inv2.d == inv2.b_p * inv2.b_p * inv2.delta_p


def test_rank2_invariants_even_q_rejected(tower2):
    F = tower2.base_field
    psi = DrinfeldModule(tower2, [Poly.one(F), Poly.one(F)])
    with pytest.raises(EvenCharacteristicError):
        rank2_invariants(psi, Poly.x(F))


def test_supersingular_implies_unit_conductor(tower3, psi3_nog1):
    F = tower3.base_field
    for d in (1, 2, 3):
        for p in enumerate_monic_irreducibles(F, d):
            inv = rank2_invariants(psi3_nog1, p)
            if inv.supersingular:
                assert inv.b_p.is_one()


def test_d_never_square_ordinary_p_never_square_supersingular(tower3, psi3, psi3_nog1):
    """Rank-2 irreducibility: P generates a quadratic field at every prime."""
    F = tower3.base_field
    for psi in (psi3, psi3_nog1):
        for d in (1, 2, 3):
            for p in enumerate_monic_irreducibles(F, d):
                inv = rank2_invariants(psi, p)
                if inv.supersingular:
                    # -u_p p and u_p p are never squares in A
                    assert not _is_square(p.scale(inv.u_p))
                    assert not _is_square(p.scale(-inv.u_p))
                else:
                    assert not _is_square(inv.d)
                # monic squarefree part of delta_p equals the split of d
                from drinfeld.polys import squarefree_split

                d0 = squarefree_split(inv.d).squarefree_part
                assert squarefree_split(inv.delta_p).squarefree_part == d0


def _is_square(f):
    from drinfeld.polys import squarefree_split

    if f.degree() % 2:
        return False
    s = squarefree_split(f)
    if not s.squarefree_part.is_one():
        return False
    # also the unit must be a square in F_q
    u = s.unit
    n = u.ctx.order
    return (u ** ((n - 1) // 2)).is_one() if n > 2 else True


def _assert_coordinates_reconstruct(lat):
    """Every tensor and pi coordinate, mapped back through psibar, rebuilds
    its target; this bypasses the solve and its column layout."""
    red = lat.red

    def combination(coords):
        acc = SkewPoly.zero(red.ctx)
        for coeff, e in zip(coords, lat.basis):
            acc = acc + red.psibar_of(coeff) * e
        return acc

    for i, bi in enumerate(lat.basis):
        for j, bj in enumerate(lat.basis):
            assert combination(lat.tensors[i][j]) == bi * bj
    assert combination(lat.pi_coords) == SkewPoly.tau_power(red.ctx, red.deg_p)


def test_end_lattice_contains_one_and_pi(tower3, psi3, tower9, tower2, psi2_rank3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    psi9 = module_from_text("T+1*t+1*t^2", tower9)
    cases = [(psi3, p) for p in (T, T + one, T * T + one)]
    for psi, degrees in ((psi9, (1, 2)), (psi2_rank3, (1, 2, 3))):
        cases += [(psi, p) for d in degrees for p in enumerate_monic_irreducibles(psi.base, d)]
    for psi, p in cases:
        lat = end_lattice(psi, p)
        assert lat.basis[0] == SkewPoly.one(lat.red.ctx)
        assert len(lat.basis) == psi.rank
        for e in lat.basis:
            assert skew_commutes(e, lat.red.psibar_T)
        _assert_coordinates_reconstruct(lat)


def test_end_lattice_rank3_contains_tau(tower2, psi2_rank3):
    """At p = T the reduction has F_2-coefficients, so tau centralizes it."""
    F = tower2.base_field
    lat = end_lattice(psi2_rank3, Poly.x(F))
    assert len(lat.basis) == 3
    tau = SkewPoly.tau_power(lat.red.ctx, 1)
    assert any(e == tau for e in lat.basis)
    assert skew_commutes(tau, lat.red.psibar_T)


def test_invariant_factors_match_rank2(tower3, psi3, psi3_nog1):
    F = tower3.base_field
    for psi in (psi3, psi3_nog1):
        for d in (1, 2):
            for p in enumerate_monic_irreducibles(F, d):
                fac = invariant_factors(psi, p)
                inv = rank2_invariants(psi, p)
                assert len(fac.factors) == 1
                assert fac.factors[0] == inv.b_p


def test_membership_monotone(tower3):
    """If m | m' and m' passes the skew-division test then m passes."""
    from drinfeld.invariants import _membership, rank2_invariants_reduced
    from drinfeld.polys import factorize, powint

    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    # a module with occasional nontrivial conductor
    psi = DrinfeldModule(tower3, [T, Poly.one(F)])
    for d in (1, 2, 3):
        for p in enumerate_monic_irreducibles(F, d):
            if not (psi.g[-1] % p).is_zero():
                red = reduce_at(psi, p)
                inv = rank2_invariants_reduced(red)
                b = inv.b_p
                if b.degree() >= 1:
                    for ell, mult in factorize(b).factors:
                        for e in range(1, mult + 1):
                            assert _membership(red, inv.a_p, powint(ell, e))


# (q, psi_T, highest prime degree) of the b_p oracle comparison
B_P_ORACLE_CASES = [
    (3, "T+1*t+1*t^2", 6),
    (5, "T+1*t+1*t^2", 4),
    (7, "T+1*t+1*t^2", 3),
    (9, "T+1*t+1*t^2", 2),
    (3, "T+T*t+1*t^2", 5),
    (5, "T+0*t+1*t^2", 3),
]


def test_rank2_b_p_equals_the_conductor_oracle():
    """b_p and delta_p of ``rank2_invariants_reduced`` (1 and d on a
    squarefree d, else the motive gcd) equal the conductor loop's on every
    good prime of the cases above: 721 primes, 30 with nontrivial b_p."""
    primes = nontrivial = 0
    for q, text, top in B_P_ORACLE_CASES:
        psi = module_from_text(text, FieldTower(q, max_degree=64))
        for deg in range(1, top + 1):
            for p in enumerate_monic_irreducibles(psi.base, deg):
                if (psi.g[-1] % p).is_zero():
                    continue
                red = reduce_at(psi, p)
                inv = rank2_invariants_reduced(red)
                b_p = conductor_b_p(red, inv.a_p, inv.d)
                assert (inv.b_p, inv.delta_p) == (b_p, inv.d.exact_div(b_p * b_p)), (
                    q, text, poly_to_text(p))
                primes += 1
                nontrivial += b_p.degree() >= 1
    assert primes == 721 and nontrivial >= 25


def test_disc_check_examples(tower3, tower2, psi3, psi2_rank3):
    F3 = tower3.base_field
    ok, report = disc_check(psi3, Poly.x(F3) + Poly.one(F3))
    assert ok
    F2 = tower2.base_field
    ok3, report3 = disc_check(psi2_rank3, Poly.x(F2))
    assert ok3
    assert poly_to_text(report3["disc_weil"]) == "T^2"


def test_disc_check_rejects_bad_gcd(tower3):
    F = tower3.base_field
    psi = DrinfeldModule(tower3, [Poly.one(F), Poly.one(F), Poly.one(F)])  # rank 3, q = 3
    from drinfeld.errors import DrinfeldError

    with pytest.raises(DrinfeldError):
        disc_check(psi, Poly.x(F))
