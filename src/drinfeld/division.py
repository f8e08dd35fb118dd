"""Explicit global Frobenius data in division fields: the rank-2 conjugacy
class matrix mod a, complete-splitting and scalar-splitting predicates, the
A-module structure of the residue field, and Abhyankar trinomials.

The J_m and Abhyankar criteria read b_{p,1}, the first of
``invariants.b_invariants`` in every rank >= 2 and characteristic; only the
closed forms that divide by 2 (class matrix, splitting, module structure)
need rank 2 at odd q."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CoprimalityError,
    DrinfeldError,
    EvenCharacteristicError,
    RankError,
)
from .fields import FFElem
from .invariants import (
    Rank2Invariants,
    WeilPolynomial,
    b_invariants,
    rank2_invariants_reduced,
    weil_motive,
)
from .modules import DrinfeldModule, ReducedModule, reduce_at
from .polys import Poly, poly_gcd, splits_separably
from .quotients import QuotElem, QuotRing


@dataclass
class FrobeniusClassMatrix:
    """Reduction mod a of [[-a_p/2, delta_p b_p/2], [b_p/2, -a_p/2]]."""

    modulus: Poly
    ring: QuotRing
    entries: list[list[QuotElem]]


@dataclass
class ModuleStructure:
    d1: Poly
    d2: Poly
    discarded_unit: FFElem


@dataclass
class AbhyankarPolynomial:
    """f(y) with psi_T(x) = x * f(x^(q-1)); coefficients in A."""

    coeffs: list[Poly]  # dense in y, low degree first

    def degree(self) -> int:
        return len(self.coeffs) - 1


def _require_rank2_odd(psi: DrinfeldModule):
    if psi.rank != 2:
        raise RankError("this operation is rank-2 only")
    if psi.tower.q % 2 == 0:
        raise EvenCharacteristicError("this operation needs odd q")


def _check_torsion_modulus(p: Poly, a: Poly):
    if a.degree() < 1:
        raise DrinfeldError("modulus must be nonconstant")
    if poly_gcd(a, p).degree() != 0:
        raise CoprimalityError("modulus must be coprime to the prime")


def frobenius_class_matrix(psi: DrinfeldModule, p: Poly, a: Poly) -> FrobeniusClassMatrix:
    _require_rank2_odd(psi)
    _check_torsion_modulus(p.monic(), a)
    red = reduce_at(psi, p)
    inv = rank2_invariants_reduced(red)
    return class_matrix_from_invariants(inv, a, psi)


def class_matrix_from_invariants(
    inv: Rank2Invariants, a: Poly, psi: DrinfeldModule
) -> FrobeniusClassMatrix:
    inv2 = psi.tower.from_int(2).inv()
    ring = QuotRing(a.monic())
    m00 = (-inv.a_p).scale(inv2)
    m01 = (inv.delta_p * inv.b_p).scale(inv2)
    m10 = inv.b_p.scale(inv2)
    entries = [[ring.reduce(m00), ring.reduce(m01)], [ring.reduce(m10), ring.reduce(m00)]]
    # construction invariants: trace and determinant mod a
    tr = entries[0][0] + entries[1][1]
    if tr != ring.reduce(-inv.a_p):
        raise DrinfeldError("class matrix trace mismatch")  # unreachable
    det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    # det = (a_p^2 - delta b^2)/4 = (a_p^2 - d)/4 = u_p p
    if det != ring.reduce((inv.a_p * inv.a_p - inv.d).scale(inv2 * inv2)):
        raise DrinfeldError("class matrix determinant mismatch")  # unreachable
    return FrobeniusClassMatrix(modulus=ring.modulus, ring=ring, entries=entries)


def splits_completely(psi: DrinfeldModule, p: Poly, a: Poly) -> bool:
    """p splits completely in F(psi[a])/F iff a_p = -2 and b_p = 0 mod a."""
    _require_rank2_odd(psi)
    _check_torsion_modulus(p.monic(), a)
    red = reduce_at(psi, p)
    inv = rank2_invariants_reduced(red)
    cond1 = ((inv.a_p + Poly.constant(psi.tower.from_int(2))) % a).is_zero()
    cond2 = (inv.b_p % a).is_zero()
    return cond1 and cond2


def module_structure(psi: DrinfeldModule, p: Poly) -> ModuleStructure:
    """^psi F_p = A/d1 x A/d2 with d1 = gcd(b/2, a/2 + 1), d2 = P(1)/d1."""
    _require_rank2_odd(psi)
    red = reduce_at(psi, p)
    return module_structure_reduced(red, rank2_invariants_reduced(red))


def module_structure_reduced(red: ReducedModule, inv: Rank2Invariants) -> ModuleStructure:
    base = red.source.base
    inv2 = red.source.tower.from_int(2).inv()
    half_b = inv.b_p.scale(inv2)  # b_p is monic, never zero
    half_a_plus_1 = inv.a_p.scale(inv2) + Poly.one(base)
    d1 = poly_gcd(half_b, half_a_plus_1)
    p_at_1 = Poly.one(base) + inv.a_p + red.prime.scale(inv.u_p)
    d2_raw = p_at_1.exact_div(d1)
    unit = d2_raw.lead()
    d2 = d2_raw.monic()
    if not (d2 % d1).is_zero():
        raise DrinfeldError("d1 does not divide d2")  # theorem guarantee
    return ModuleStructure(d1=d1, d2=d2, discarded_unit=unit)


def b_p_first(psi: DrinfeldModule, p: Poly) -> Poly:
    """b_{p,1}, the first of ``b_invariants``."""
    red = reduce_at(psi, p)
    return _b_first(red, weil_motive(red))


def _b_first(red: ReducedModule, weil: WeilPolynomial) -> Poly:
    if red.rank < 2:
        raise RankError("the b_{p,1} criteria need rank >= 2")
    return b_invariants(red, weil)[0]


def jm_splits(psi: DrinfeldModule, p: Poly, m: Poly) -> bool:
    """p splits completely in J_m iff m divides b_{p,1}."""
    _check_torsion_modulus(p.monic(), m)
    b1 = b_p_first(psi, p)
    return (b1 % m).is_zero()


# ---------------------------------------------------------------------------
# Abhyankar trinomials


def abhyankar_poly(psi: DrinfeldModule) -> AbhyankarPolynomial:
    """f(y) = T + g_1 y + g_2 y^(q+1) + ... + g_r y^((q^r-1)/(q-1)), kept on psi."""
    if psi._abhyankar is not None:
        return psi._abhyankar
    base = psi.base
    q = psi.tower.q
    top = (q**psi.rank - 1) // (q - 1)
    coeffs = [Poly.zero(base) for _ in range(top + 1)]
    coeffs[0] = Poly.x(base)  # T
    for i, g in enumerate(psi.g, start=1):
        coeffs[(q**i - 1) // (q - 1)] = g
    f = AbhyankarPolynomial(coeffs=coeffs)
    _verify_abhyankar_identity(psi, f)
    psi._abhyankar = f
    return f


def _verify_abhyankar_identity(psi: DrinfeldModule, f: AbhyankarPolynomial):
    """psi_T(x) = x f(x^(q-1)) as polynomials with A-coefficients."""
    q = psi.tower.q
    lhs: dict[int, Poly] = {1: Poly.x(psi.base)}
    for i, g in enumerate(psi.g, start=1):
        lhs[q**i] = g
    rhs: dict[int, Poly] = {}
    for j, c in enumerate(f.coeffs):
        if not c.is_zero():
            rhs[1 + j * (q - 1)] = c
    lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
    if lhs != rhs:
        raise DrinfeldError("Abhyankar identity failed")  # unreachable


def abhyankar_splits_mod(psi: DrinfeldModule, p: Poly) -> tuple[bool, dict]:
    """Does f_psi split into linear factors mod p?  See abhyankar_splits_reduced."""
    red = reduce_at(psi, p)
    weil = weil_motive(red)
    return abhyankar_splits_reduced(red, _b_first(red, weil), weil)


def abhyankar_splits_reduced(
    red: ReducedModule, b1: Poly, weil: WeilPolynomial
) -> tuple[bool, dict]:
    """Test whether f_psi splits into linear factors mod p, cross-checked
    against T | b_{p,1}; on a split prime, also against T^2 | disc(P), the
    ``disc`` of ``weil`` (d = a_p^2 - 4 u_p p in rank 2).

    At p != T, psibar_T(x) = x fbar(x^(q-1)) has derivative t != 0, so fbar
    is separable and splits iff it has deg fbar distinct roots in F_p
    (``splits_separably``).  In rank 2 at odd q a split prime also gets the
    square witness p = u alpha^2 + T^2 beta.
    """
    psi = red.source
    if psi.rank < 2:
        raise RankError("the b_{p,1} criteria need rank >= 2")
    T = Poly.x(psi.base)
    if red.prime == T:
        raise DrinfeldError("the prime T is excluded from the Abhyankar law")
    f = abhyankar_poly(psi)
    fbar = Poly(red.ctx, [red.residue.reduce(c) for c in f.coeffs])
    if fbar.degree() != f.degree():
        raise DrinfeldError("Abhyankar polynomial drops degree mod p")  # g_r unit mod p
    splits = splits_separably(fbar)
    if splits != (b1 % T).is_zero():
        raise DrinfeldError(
            "Abhyankar splitting disagrees with the T | b_1 criterion"
        )
    report: dict = {"splits": splits, "b_1": b1}
    if splits:
        if not (weil.disc % (T * T)).is_zero():
            raise DrinfeldError("split prime without T^2 | disc(P)")
        report["disc"] = weil.disc
        if psi.rank == 2 and psi.tower.char != 2:
            report["witness"] = _square_witness(red, weil)
    return splits, report


def _square_witness(red: ReducedModule, weil: WeilPolynomial) -> dict:
    """p = u alpha^2 + T^2 beta with u a unit, from d = a_p^2 - 4 u_p p."""
    base = red.source.base
    inv2 = red.source.tower.from_int(2).inv()
    alpha = weil.a_p.scale(inv2)
    u = weil.unit.inv()
    tsq = Poly.x(base) * Poly.x(base)
    beta = (-weil.disc.scale(inv2 * inv2)).exact_div(tsq).scale(u)
    p_check = (alpha * alpha).scale(u) + tsq * beta
    if p_check != red.prime:
        raise DrinfeldError("square witness identity failed")  # unreachable
    return {"u": u, "alpha": alpha, "beta": beta}
