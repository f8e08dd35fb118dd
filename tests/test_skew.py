import random

import pytest

from drinfeld.errors import DrinfeldError, RingMismatchError
from drinfeld.polys import NEG_INF, Poly, powint
from drinfeld.skew import (
    AOverField,
    SkewPoly,
    skew_commutes,
    skew_eval,
    skew_mul,
    skew_right_divmod,
)


def test_commutation_rule(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    z = tower3.gen(F9)
    tau = SkewPoly.tau_power(F9, 1)
    assert tau * SkewPoly(F9, [z]) == SkewPoly(F9, [F9.zero_elem(), z**3])


def test_mul_identity(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    z = tower3.gen(F9)
    f = SkewPoly(F9, [z, z + z, F9.one_elem()])
    assert f * SkewPoly.one(F9) == f
    assert SkewPoly.one(F9) * f == f


def test_cross_term_cancellation(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    c = tower3.gen(F9)
    tau = SkewPoly.tau_power(F9, 1)
    lhs = (tau - SkewPoly(F9, [c**3])) * (tau + SkewPoly(F9, [c]))
    assert lhs == SkewPoly(F9, [-(c**4), F9.zero_elem(), F9.one_elem()])


def test_right_divmod_examples(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    c = tower3.gen(F9)
    tau = SkewPoly.tau_power(F9, 1)
    q, r = skew_right_divmod(tau * tau + tau, tau)
    assert q == tau + SkewPoly.one(F9) and r.is_zero()
    f = SkewPoly(F9, [c])
    q2, r2 = skew_right_divmod(f, tau)
    assert q2.is_zero() and r2 == f
    q3, r3 = skew_right_divmod(tau * tau, tau + SkewPoly(F9, [c]))
    assert q3 == tau - SkewPoly(F9, [c**3])
    assert r3 == SkewPoly(F9, [c**4])


def test_divmod_requires_field_coefficients(tower3):
    A = AOverField(tower3.base_field)
    f = SkewPoly(A, [Poly.x(tower3.base_field)])
    with pytest.raises(DrinfeldError):
        skew_right_divmod(f, f)


def test_divmod_by_zero(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    with pytest.raises(ZeroDivisionError):
        skew_right_divmod(SkewPoly.tau_power(F9, 1), SkewPoly.zero(F9))


def test_eval_examples(tower3):
    F3 = tower3.base_field
    tau = SkewPoly.tau_power(F3, 1)
    x = tower3.from_int(2)
    assert skew_eval(tau, x) == x**3
    f = SkewPoly(F3, [tower3.from_int(2), F3.one_elem(), F3.one_elem()])
    assert skew_eval(f, tower3.zero()) == tower3.zero()
    assert skew_eval(f, tower3.one()) == tower3.one()  # 2 + 1 + 1 = 1 mod 3


def test_commutes(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    z = tower3.gen(F9)
    tau = SkewPoly.tau_power(F9, 1)
    f = tau * tau + SkewPoly(F9, [z])
    assert skew_commutes(f, f)
    assert not skew_commutes(tau, SkewPoly(F9, [z]))  # z^q != z


def test_frobenius_centralizes_over_prime_field(tower3, psi3):
    """psibar_T commutes with tau^deg(p): Frobenius is an endomorphism."""
    from drinfeld.modules import reduce_at
    from drinfeld.polys import Poly

    T = Poly.x(tower3.base_field)
    for p in [T, T + Poly.one(tower3.base_field)]:
        red = reduce_at(psi3, p)
        frob = SkewPoly.tau_power(red.ctx, red.deg_p)
        assert skew_commutes(red.psibar_T, frob)


def test_ring_mismatch(tower3, tower2):
    f = SkewPoly.tau_power(tower3.base_field, 1)
    g = SkewPoly.tau_power(tower2.base_field, 1)
    with pytest.raises(RingMismatchError):
        skew_mul(f, g)


def _random_skew(ctx, rng, max_deg):
    order = ctx.order
    return SkewPoly(ctx, [ctx.dec_elem(rng.randrange(order)) for _ in range(rng.randrange(1, max_deg + 2))])


@pytest.mark.parametrize("q,deg", [(3, 1), (9, 2), (25, 2)])
def test_no_zero_divisors_degree_additivity(q, deg, tower3, tower9, tower25):
    tower = {3: tower3, 9: tower9, 25: tower25}[q]
    ctx = tower.base_field
    rng = random.Random(q)
    for _ in range(200):
        f = _random_skew(ctx, rng, 4)
        g = _random_skew(ctx, rng, 4)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_associativity_distributivity(tower9):
    ctx = tower9.base_field
    rng = random.Random(41)
    for _ in range(60):
        f, g, h = (_random_skew(ctx, rng, 3) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_over_A_reduce_then_multiply(tower3, psi3):
    """Reducing mod p then multiplying equals multiplying then reducing."""
    from drinfeld.modules import reduce_at
    from drinfeld.polys import enumerate_monic_irreducibles

    A = AOverField(tower3.base_field)
    rng = random.Random(4)
    F = tower3.base_field
    primes = list(enumerate_monic_irreducibles(F, 2))
    for _ in range(40):
        f = SkewPoly(A, [Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(3)]) for _ in range(3)])
        g = SkewPoly(A, [Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(3)]) for _ in range(3)])
        p = rng.choice(primes)
        red = reduce_at(psi3, p)

        def reduce_skew(s):
            return SkewPoly(red.ctx, [red.residue.reduce(c) for c in s.coeffs])

        assert reduce_skew(f * g) == reduce_skew(f) * reduce_skew(g)


def test_zero_degree_marker(tower3):
    assert SkewPoly.zero(tower3.base_field).degree() == NEG_INF


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_twist_over_A_matches_powint(q):
    """tau^k c = c^(q^k) tau^k over A: the stretched coefficients equal the
    power c^(q^k) by repeated squaring, for c = 0, constants and c of
    degree up to 2."""
    from drinfeld.fields import FieldTower

    F = FieldTower(q).base_field
    A = AOverField(F)
    rng = random.Random(q)
    cases = [Poly.zero(F), Poly.one(F), Poly.constant(F.dec_elem(q - 1))]
    cases += [Poly(F, [F.dec_elem(rng.randrange(q)) for _ in range(3)]) for _ in range(3)]
    for k in range(4):
        tau_k = SkewPoly.tau_power(A, k)
        for c in cases:
            twisted = (tau_k * SkewPoly(A, [c]))[k]
            assert twisted == powint(c, q**k)
