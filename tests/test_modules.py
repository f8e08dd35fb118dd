import random

import pytest

from drinfeld.amatrix import ring_det
from drinfeld.errors import BadReductionError, CoprimalityError, ZeroInputError
from drinfeld.modules import DrinfeldModule, good_reduction_at, psi_of, reduce_at
from drinfeld.polys import Poly, enumerate_monic_irreducibles
from drinfeld.quotients import mat_trace
from drinfeld.skew import skew_eval
from drinfeld.textio import poly_to_text
from drinfeld.torsion import module_structure_oracle, torsion_basis


def test_psi_of_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    assert psi_of(psi3, T) == psi3.psi_T
    c = Poly.from_ints(F, [2])
    sk = psi_of(psi3, c)
    assert sk.degree() == 0 and sk[0] == c
    sq = psi_of(psi3, T * T)
    assert sq == psi3.psi_T * psi3.psi_T
    assert sq.degree() == 4 and sq[0] == T * T
    with pytest.raises(ZeroInputError):
        psi_of(psi3, Poly.zero(F))


def test_psi_is_ring_homomorphism_random(tower3, psi3):
    F = tower3.base_field
    rng = random.Random(9)
    for _ in range(30):
        a = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 3))])
        b = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 3))])
        if a.is_zero() or b.is_zero():
            continue
        pa, pb = psi_of(psi3, a), psi_of(psi3, b)
        assert psi_of(psi3, a * b) == pa * pb == pb * pa
        assert psi_of(psi3, a + b) == pa + pb if not (a + b).is_zero() else True


def test_good_reduction_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    assert good_reduction_at(psi3, T)
    bad = DrinfeldModule(tower3, [one, T])
    assert not good_reduction_at(bad, T)
    ok = DrinfeldModule(tower3, [one, T + one])
    assert good_reduction_at(ok, T)


def test_reduce_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    red = reduce_at(psi3, T)
    assert [c.coords for c in red.psibar_T.coeffs] == [(0,), (1,), (1,)]
    red2 = reduce_at(psi3, T + one)
    assert [c.coords for c in red2.psibar_T.coeffs] == [(2,), (1,), (1,)]
    bad = DrinfeldModule(tower3, [one, T])
    with pytest.raises(BadReductionError):
        reduce_at(bad, T)


def test_residue_reduce_factors_through_p(tower3, psi3):
    """reduce(f) = reduce(f mod p), reduce(p) = 0 and T goes to the T-image."""
    F = tower3.base_field
    rng = random.Random(13)
    for p in enumerate_monic_irreducibles(F, 3):
        res = reduce_at(psi3, p).residue
        assert res.reduce(p).is_zero()
        assert res.reduce(Poly.x(F)) == res.t_image
        for _ in range(10):
            f = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(5)])
            assert res.reduce(f) == res.reduce(f % p)
        break


def test_torsion_kernel_size(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    tb = torsion_basis(psi3, T + one, T)
    # kernel of 2x + x^3 + x^9 has exactly 9 elements: F_q-dimension 2
    assert len(tb.kernel_basis) == 2
    assert len(tb.generators) == 2
    red = reduce_at(psi3, T + one)
    sk = red.psibar_of(T)
    for g in tb.generators:
        assert skew_eval(sk, g).is_zero()


def test_torsion_frobenius_invertible_and_consistent(tower3, psi3):
    from drinfeld.invariants import weil_rank2

    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    for p, a in [(T + one, T), (T, T + one), (T + 2 * one if False else T + one + one, T)]:
        tb = torsion_basis(psi3, p, a)
        ring = tb.ring
        det = ring_det(tb.frobenius_matrix)
        assert det.is_unit()
        weil = weil_rank2(psi3, p)
        tr = mat_trace(tb.frobenius_matrix, ring)
        assert tr == ring.reduce(-weil.a_p)
        assert det == ring.reduce(weil.coeffs[0])


def test_torsion_requires_coprime(tower3, psi3):
    F = tower3.base_field
    T = Poly.x(F)
    with pytest.raises(CoprimalityError):
        torsion_basis(psi3, T, T)


def test_torsion_module_closed_under_action(tower3, psi3):
    """Exhaustive for deg a = 1, q = 3: kernel closed under every psibar_m."""
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    tb = torsion_basis(psi3, T + one, T)
    red = reduce_at(psi3, T + one)
    L = tb.generators[0].ctx
    tower = tower3
    # enumerate all 9 kernel elements as F_q-combinations of the basis
    from drinfeld.fields import FFElem

    els = []
    b0, b1 = tb.kernel_basis
    for c0 in range(3):
        for c1 in range(3):
            v = (b0.vec() * c0 + b1.vec() * c1) % 3
            els.append(FFElem(L, tuple(int(x) for x in v)))
    kernel = {e.coords for e in els}
    for m in [T, T + one, T * T]:
        skm = red.psibar_of(m)
        for e in els:
            assert skew_eval(skm, e).coords in kernel or skew_eval(skm, e).is_zero()


def test_torsion_composite_modulus(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    tb = torsion_basis(psi3, T + one, T * T)  # a = T^2
    assert len(tb.kernel_basis) == 4
    assert ring_det(tb.frobenius_matrix).is_unit()


def test_module_structure_oracle_examples(tower3, psi3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    ms = module_structure_oracle(psi3, T)
    assert [poly_to_text(f) for f in ms] == ["T+1"]
    # rank 1: single invariant factor of degree deg p
    psi1 = DrinfeldModule(tower3, [one])
    for p in enumerate_monic_irreducibles(F, 2):
        factors = module_structure_oracle(psi1, p)
        assert len(factors) == 1 and factors[0].degree() == 2
    # product of invariant factors has degree deg p
    for p in enumerate_monic_irreducibles(F, 3):
        factors = module_structure_oracle(psi3, p)
        assert sum(f.degree() for f in factors) == 3


def test_module_structure_oracle_degree_14(tower3, psi3, deadline):
    """A residue field above the log-table limit: the oracle is one Krylov
    walk and one solve on a 14 x 14 prime matrix."""
    from drinfeld.textio import poly_from_text
    from drinfeld.torsion import module_structure_oracle_reduced

    p = poly_from_text("T^14+2*T^12+T^10+2*T^8+2*T^6+2*T^4+T^3+T+2", tower3)
    red = reduce_at(psi3, p)
    with deadline(2):
        factors = module_structure_oracle_reduced(red)
    assert [poly_to_text(f) for f in factors] == [
        "T^14+2*T^12+T^10+2*T^8+T^7+T^6+T^5+2*T^4+2*T^3+2*T^2+2"
    ]


def test_own_modulus_residue_field_is_embedded_by_a_root():
    """At prime q above the table limit a residue field is F_q[x]/(p), a
    field of its own that shares no map with the tower's F_(q^n).  Torsion
    embeds it into its splitting fields by a root of p, so the torsion route
    agrees with the motive route on two degree-9 primes at q = 3, after the
    tower's F_(3^9) and another degree-9 residue field exist; a map keyed by
    degree would carry the other field's x into them."""
    from drinfeld.fields import FieldTower
    from drinfeld.invariants import weil_general, weil_motive
    from drinfeld.textio import module_from_text, poly_from_text

    tower = FieldTower(3, max_degree=400)
    psi = module_from_text("T+1*t+1*t^2", tower)
    tower.embedding(tower.base_field, tower.field(9))
    other = reduce_at(psi, list(enumerate_monic_irreducibles(tower.base_field, 9))[1])
    for text in ["T^9+2*T^3+T^2+T+2", "T^9+2*T^3+2*T^2+2"]:
        p = poly_from_text(text, tower)
        red = reduce_at(psi, p)
        assert red.ctx is not tower.field(9) and red.ctx.fid.modulus != tower.field(9).fid.modulus
        assert weil_general(psi, p).coeffs == weil_motive(red).coeffs
    # the tower keeps no map of a residue field
    residue_ids = {other.ctx.fid, red.ctx.fid}
    assert not any(set(key) & residue_ids for key in tower._embeddings)


def test_residue_fields_go_with_their_reductions():
    """A module keeps a residue field only while a reduction holds it, so a
    survey's residue fields (and their own maps) do not pile up."""
    import gc
    import weakref

    from drinfeld.fields import FieldTower
    from drinfeld.textio import module_from_text

    tower = FieldTower(3)
    psi = module_from_text("T+1*t+1*t^2", tower)
    primes = list(enumerate_monic_irreducibles(tower.base_field, 9))[:3]
    reds = [reduce_at(psi, p) for p in primes]
    assert reduce_at(psi, primes[0]).residue is reds[0].residue
    ctxs = [weakref.ref(red.ctx) for red in reds]
    assert len(psi._residues) == 3
    del reds
    gc.collect()
    assert len(psi._residues) == 0
    assert all(ref() is None for ref in ctxs)
