"""Frobenius invariants of reductions: Weil polynomials, the rank-2 conductor
b_p and discriminant delta_p, the endomorphism lattice, and its invariant
factors.

The Weil polynomial of any rank is the characteristic polynomial of
Frobenius on the Anderson motive; in rank 2 the closed recursion mod p gives
it too, and ``weil_general`` (torsion Frobenius matrices glued by CRT) stays
as the tests' independent oracle.  The conductor comes from skew
right-division membership, while the invariant factors come from the lattice
and a Smith normal form; the cross-checks are part of the acceptance gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .amatrix import charpoly, discriminant, ring_det, smith_normal_form
from .errors import (
    ConfigurationError,
    DrinfeldError,
    EvenCharacteristicError,
    InconclusiveBasisError,
    RankError,
)
from .fields import FFElem
from .modules import DrinfeldModule, ReducedModule, motive_frobenius, reduce_at
from .polys import Poly, enumerate_monic_irreducibles, factorize, crt, powint
from .skew import SkewPoly, left_blocks, left_mul, skew_right_divmod
from .torsion import torsion_basis_reduced


@dataclass
class WeilPolynomial:
    """P(x) = x^r + c_{r-1} x^{r-1} + ... + c_0 with c_0 = unit * p."""

    prime: Poly
    coeffs: tuple[Poly, ...]  # c_0 .. c_{r-1}
    unit: FFElem

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def x_coeff_list(self) -> list[Poly]:
        field = self.prime.field
        return list(self.coeffs) + [Poly.one(field)]

    @property
    def a_p(self) -> Poly:
        if self.rank != 2:
            raise RankError("a_p is the rank-2 x-coefficient")
        return self.coeffs[1]


@dataclass
class Rank2Invariants:
    a_p: Poly
    u_p: FFElem
    d: Poly  # a_p^2 - 4 u_p p
    b_p: Poly  # monic conductor
    delta_p: Poly  # exact d / b_p^2 (not monic)
    supersingular: bool
    weil: WeilPolynomial | None = None  # the P(x) these were computed from

    @property
    def delta_monic(self) -> Poly:
        return self.delta_p.monic()


@dataclass
class EndLattice:
    """A-basis of End(psi x F_p) with multiplication tensors, all exact."""

    red: ReducedModule
    basis: list[SkewPoly]
    tensors: list[list[list[Poly]]]  # tensors[i][j][k]: e_i e_j = sum_k t e_k
    pi_coords: list[Poly]
    window: int


@dataclass
class InvariantFactors:
    factors: list[Poly]  # b_1 | b_2 | ... | b_{r-1}, monic


# ---------------------------------------------------------------------------
# rank-2 closed forms


def u_invariant(psi: DrinfeldModule, p: Poly) -> FFElem:
    """(-1)^deg(p) * Norm(g_2 mod p)^(-1) in F_q."""
    if psi.rank != 2:
        raise RankError("u_invariant is a rank-2 invariant")
    red = reduce_at(psi, p)
    return _u_from_reduction(red)


def _u_from_reduction(red: ReducedModule) -> FFElem:
    tower = red.source.tower
    g_top = red.residue.reduce(red.source.g[-1])
    norm = tower.norm_to_base(g_top)
    u = norm.inv()
    if red.deg_p % 2:
        u = -u
    return u


def weil_rank2(psi: DrinfeldModule, p: Poly) -> WeilPolynomial:
    """Weil polynomial x^2 + a_p x + u_p p via the coefficient recursion mod p."""
    if psi.rank != 2:
        raise RankError("weil_rank2 needs rank 2")
    red = reduce_at(psi, p)
    return weil_rank2_reduced(red)


def weil_rank2_reduced(red: ReducedModule) -> WeilPolynomial:
    tower = red.source.tower
    ctx = red.ctx
    n = red.deg_p
    u_p = _u_from_reduction(red)
    g1 = red.residue.reduce(red.source.g[0])
    g2 = red.residue.reduce(red.source.g[1])
    t_img = red.residue.t_image
    s_prev = ctx.one_elem()  # s_0
    s_cur = g1  # s_1
    for k in range(2, n + 1):
        bracket = tower.frobenius_power(t_img, k - 1) - t_img  # [k-1] mod p
        s_next = (
            -bracket * s_prev * tower.frobenius_power(g2, k - 2)
            + s_cur * tower.frobenius_power(g1, k - 1)
        )
        s_prev, s_cur = s_cur, s_next
    a_bar = -tower.embed(u_p, ctx) * s_cur
    a_p = red.residue.lift(a_bar)
    if 2 * a_p.degree() > n:
        raise DrinfeldError(
            "Riemann hypothesis bound violated; this is an implementation bug"
        )
    c0 = red.prime.scale(u_p)
    return WeilPolynomial(prime=red.prime, coeffs=(c0, a_p), unit=u_p)


def weil_identity_holds(red: ReducedModule, weil: WeilPolynomial) -> bool:
    """P(tau^deg p) = tau^(n r) + sum_i psibar(c_i) tau^(n i) = 0 in F_p{tau},
    checked exactly on one prime-coordinate array."""
    n = red.deg_p
    r = len(weil.coeffs)
    terms = [(n * i, red.psibar_array(c)) for i, c in enumerate(weil.coeffs)]
    rows = max([n * r + 1] + [s + len(x) for s, x in terms])
    acc = np.zeros((rows, red.ctx.degree), dtype=np.int64)
    acc[n * r, 0] = 1
    for s, x in terms:
        acc[s : s + len(x)] += x
    return not (acc % red.ctx.char).any()


# ---------------------------------------------------------------------------
# general rank: Frobenius on the Anderson motive


def _checked_weil(red: ReducedModule, coeffs: list[Poly]) -> WeilPolynomial:
    """WeilPolynomial from c_0 .. c_{r-1}; raises unless c_0 = unit * p and
    P(tau^deg p) = 0."""
    quot, rem = divmod(coeffs[0], red.prime)
    if not rem.is_zero() or quot.degree() != 0:
        raise DrinfeldError("constant Weil coefficient is not unit * p")
    weil = WeilPolynomial(prime=red.prime, coeffs=tuple(coeffs), unit=quot[0])
    if not weil_identity_holds(red, weil):
        raise DrinfeldError("Weil polynomial fails the skew identity")
    return weil


def weil_motive(red: ReducedModule) -> WeilPolynomial:
    """Weil polynomial det(x - pi) of Frobenius on the Anderson motive.

    pi is ``modules.motive_frobenius``, an r x r matrix over F_p[T]; the
    coefficients of det(x - pi) lie in F_q[T].
    """
    tower, base, r = red.source.tower, red.source.base, red.rank
    pi = motive_frobenius(red)
    zero = Poly.zero(red.ctx)
    coeffs = []
    for j in range(r):  # c_j = (-1)^(r-j) * (sum of the principal (r-j)-minors)
        minors = (ring_det([[pi[u][v] for v in s] for u in s])
                  for s in combinations(range(r), r - j))
        c = sum(minors, zero)
        c = -c if (r - j) % 2 else c
        coeffs.append(c.map_coeffs(lambda x: tower.project(x, base), base))
    return _checked_weil(red, coeffs)


# ---------------------------------------------------------------------------
# general rank via torsion + CRT (the test oracle for weil_motive)


def _aux_moduli(psi: DrinfeldModule, p: Poly, need: int, cap: int) -> list[Poly]:
    """Pairwise-coprime prime-power moduli avoiding p, total degree >= need.

    Greedy: each step raises the power of the prime whose next power has the
    smallest degree, ties going to the earlier prime in (degree, lex) order.
    So a second linear prime comes before the square of the first.  Each
    modulus is capped at degree ``cap`` so torsion kernels stay desk-sized.
    """
    base = psi.base
    pool: list[Poly] = []
    for d in range(1, cap + 1):
        for ell in enumerate_monic_irreducibles(base, d):
            if ell != p:
                pool.append(ell)
    exps = [0] * len(pool)
    total = 0
    while total < need:
        best = None
        for i, ell in enumerate(pool):
            cost = (exps[i] + 1) * ell.degree()
            if cost > cap:
                continue
            if best is None or cost < (exps[best] + 1) * pool[best].degree():
                best = i
        if best is None:
            raise ConfigurationError(
                "cannot assemble enough coprime auxiliary moduli within the degree budget"
            )
        exps[best] += 1
        total += pool[best].degree()
    return [powint(ell, e) for ell, e in zip(pool, exps) if e]


def weil_general(psi: DrinfeldModule, p: Poly) -> WeilPolynomial:
    """Weil polynomial of any rank from torsion Frobenius matrices and CRT."""
    red = reduce_at(psi, p)
    n = red.deg_p
    r = psi.rank
    moduli = _aux_moduli(psi, red.prime, n + 1, cap=2)  # keeps torsion kernels small
    residues: list[list[Poly]] = []  # residues[i][j]: c_j mod moduli[i]
    for m in moduli:
        tb = torsion_basis_reduced(red, m)
        cp = charpoly(tb.frobenius_matrix)
        residues.append([cp[j].rep for j in range(r)])
    coeffs = []
    for j in range(r):
        c = crt([res[j] for res in residues], moduli)
        if c.degree() > n:
            raise DrinfeldError("reconstructed coefficient exceeds the degree bound")
        coeffs.append(c)
    return _checked_weil(red, coeffs)


# ---------------------------------------------------------------------------
# rank-2 conductor by skew-division membership


def rank2_invariants(psi: DrinfeldModule, p: Poly) -> Rank2Invariants:
    if psi.rank != 2:
        raise RankError("rank-2 invariants need rank 2")
    if psi.tower.q % 2 == 0:
        raise EvenCharacteristicError("rank-2 invariants need odd q")
    red = reduce_at(psi, p)
    return rank2_invariants_reduced(red)


def rank2_invariants_reduced(red: ReducedModule) -> Rank2Invariants:
    from .polys import squarefree_split

    tower = red.source.tower
    base = tower.base_field
    weil = weil_rank2_reduced(red)
    a_p, u_p = weil.coeffs[1], weil.unit
    d = a_p * a_p - red.prime.scale(u_p * tower.from_int(4))
    split = squarefree_split(d)
    b_p = Poly.one(base)
    for ell, mult in factorize(split.conductor_part).factors:
        best = 0
        for e in range(1, mult + 1):
            if _membership(red, a_p, powint(ell, e)):
                best = e
            else:
                break
        if best:
            b_p = b_p * powint(ell, best)
    delta = d.exact_div(b_p * b_p)
    return Rank2Invariants(
        a_p=a_p,
        u_p=u_p,
        d=d,
        b_p=b_p.monic(),
        delta_p=delta,
        supersingular=a_p.is_zero(),
        weil=weil,
    )


def _membership(red: ReducedModule, a_p: Poly, m: Poly) -> bool:
    """(2 pi + a_p)/m lies in End(psi x F_p), by skew right-division."""
    ctx = red.ctx
    two = red.source.tower.from_int(2, ctx)
    elt = SkewPoly.tau_power(ctx, red.deg_p).scale_left(two) + red.psibar_of(a_p)
    _, rem = skew_right_divmod(elt, red.psibar_of(m))
    return rem.is_zero()


# ---------------------------------------------------------------------------
# the endomorphism lattice by centralizer linear algebra
#
# End(psi x F_p) is read off the commutant of psibar_T in tau-degree <= D.
# The A-span of a candidate basis is one prime matrix, ``_span_columns``: the
# greedy basis choice and the stability check feed its columns to a RowSpace,
# and one solve against it, built at the largest target degree, gives the
# coordinates of the products e_i e_j and of pi = tau^n.

# The tau-degree window D grows by 2r per step and is capped at 4 (n + r^2).
WINDOW_GROWTH_PER_RANK = 2
WINDOW_CAP_FACTOR = 4


def end_lattice(psi: DrinfeldModule, p: Poly) -> EndLattice:
    return end_lattice_reduced(reduce_at(psi, p))


def _commutant_nullspace(red: ReducedModule, D: int) -> list[np.ndarray]:
    """Solutions e of e psibar_T = psibar_T e with tau-degree <= D, as
    prime-coordinate arrays without zero top rows, in (degree, code) order."""
    tower = red.source.tower
    ctx = red.ctx
    p0 = tower.char
    m = ctx.degree
    r = red.rank
    rows = (D + r + 1) * m
    cols = (D + 1) * m
    big = np.zeros((rows, cols), dtype=np.int64)
    for d in range(D + 1):
        for j, (gj, kj) in enumerate(zip(red.psibar_T.coeffs, red.psibar_blocks)):
            if kj is None:
                continue
            # coefficient at tau^(d+j): e_d * gj^(q^d) - gj * e_d^(q^j)
            twisted = tower.frobenius_power(gj, d)
            big[(d + j) * m : (d + j + 1) * m, d * m : (d + 1) * m] += (
                ctx.mult_matrix(twisted.coords) - kj
            )
    big %= p0
    out = []
    for rowv in linalg.nullspace(big, p0):
        x = rowv.reshape(D + 1, m)
        out.append(x[: np.flatnonzero(x.any(axis=1))[-1] + 1])
    out.sort(key=lambda x: (len(x), tuple(ctx.enc(row) for row in x.tolist())))
    return out


def _vec(x: np.ndarray, D: int) -> np.ndarray:
    """Prime coordinates of a skew array, one m-block per tau-degree 0..D."""
    v = np.zeros((D + 1, x.shape[1]), dtype=np.int64)
    v[: len(x)] = x
    return v.ravel()


def _span_columns(
    red: ReducedModule, basis: list[np.ndarray], D: int
) -> tuple[np.ndarray, list[int]]:
    """Prime matrix of the A-span of the basis, truncated at tau-degree D.

    The columns are y^t psibar_T^u b for each b in turn, every u with
    tau-degree <= D and t < e, in (b, u, t) order; their prime span is the
    F_q-span of the psibar_T^u b.  Also returns the number of T-powers u
    taken for each b.
    """
    tower = red.source.tower
    ctx = red.ctx
    vecs = []
    counts = []
    for b in basis:
        cur = b
        u = 0
        while len(cur) <= D + 1:
            vecs.append(_vec(cur, D))
            cur = left_mul(red.psibar_blocks, cur, tower.char)
            u += 1
        counts.append(u)
    y = tower.embed(tower.gen(tower.base_field), ctx)
    my_blocks = np.kron(np.eye(D + 1, dtype=np.int64), ctx.mult_matrix(y.coords))
    cols = linalg.orbits(vecs, my_blocks, tower.base_degree, tower.char)
    return np.stack(cols, axis=1), counts


def _add_span(space: linalg.RowSpace, red: ReducedModule, basis: list[np.ndarray], D: int) -> None:
    for col in _span_columns(red, basis, D)[0].T:
        space.add(col)


def end_lattice_reduced(red: ReducedModule) -> EndLattice:
    n = red.deg_p
    r = red.rank
    ctx = red.ctx
    m = ctx.degree
    p0 = red.source.tower.char
    growth = WINDOW_GROWTH_PER_RANK * r
    cap = WINDOW_CAP_FACTOR * (n + r * r)
    D = n + 2 * r

    while True:
        if D > cap:
            raise InconclusiveBasisError(
                f"no stable lattice basis within the window cap {cap}"
            )
        sols = _commutant_nullspace(red, D)
        basis = [np.array([ctx.one_coords()], dtype=np.int64)]  # e_1 = 1 always lies in E
        space = linalg.RowSpace((D + 1) * m, p0)
        _add_span(space, red, basis, D)
        for s in sols:
            if len(basis) == r:
                break
            if space.contains(_vec(s, D)):
                continue
            basis.append(s)
            _add_span(space, red, [s], D)
        if len(basis) < r or any(not space.contains(_vec(s, D)) for s in sols):
            D += growth
            continue
        # stability: one more window of 2r brings nothing new
        D2 = D + 2 * r
        if D2 > cap:
            raise InconclusiveBasisError(
                f"no stable lattice basis within the window cap {cap}"
            )
        space2 = linalg.RowSpace((D2 + 1) * m, p0)
        _add_span(space2, red, basis, D2)
        if any(not space2.contains(_vec(s, D2)) for s in _commutant_nullspace(red, D2)):
            D = D2
            continue
        break

    # coordinates of the r^2 products e_i e_j and of pi = tau^n, by one solve
    # against the span matrix at the largest target degree; the basis is free
    # over A, so its columns are independent and the solution is unique
    tau_n = np.zeros((n + 1, m), dtype=np.int64)
    tau_n[n, 0] = 1
    targets = [left_mul(left_blocks(ctx, bi), bj, p0) for bi in basis for bj in basis] + [tau_n]
    top = max(len(t) for t in targets) - 1
    mat, counts = _span_columns(red, basis, top)
    rhs = np.stack([_vec(t, top) for t in targets], axis=1)
    sol = linalg.solve(mat, rhs, p0)
    if sol is None:
        raise InconclusiveBasisError("element does not lie in the A-span of the basis")
    coords = [_coords(sol[:, k], counts, red) for k in range(len(targets))]
    tensors = [coords[i * r : (i + 1) * r] for i in range(r)]
    return EndLattice(
        red=red,
        basis=[SkewPoly.from_array(ctx, b) for b in basis],
        tensors=tensors,
        pi_coords=coords[-1],
        window=D,
    )


def _coords(x: np.ndarray, counts: list[int], red: ReducedModule) -> list[Poly]:
    """A-coordinates from a solution vector in the (b, u, t) column order."""
    tower = red.source.tower
    base = tower.base_field
    e = tower.base_degree
    out = []
    pos = 0
    for k in counts:
        block = x[pos : pos + k * e].reshape(k, e)
        pos += k * e
        out.append(Poly(base, [FFElem(base, tuple(int(c) for c in row)) for row in block]))
    return out


# ---------------------------------------------------------------------------
# invariant factors and the discriminant identity


def _coords_mul(lat: EndLattice, a: list[Poly], b: list[Poly]) -> list[Poly]:
    r = len(lat.basis)
    base = lat.red.source.tower.base_field
    out = [Poly.zero(base) for _ in range(r)]
    for i in range(r):
        if a[i].is_zero():
            continue
        for j in range(r):
            if b[j].is_zero():
                continue
            prod = a[i] * b[j]
            for k in range(r):
                t = lat.tensors[i][j][k]
                if not t.is_zero():
                    out[k] = out[k] + prod * t
    return out


def invariant_factors(psi: DrinfeldModule, p: Poly) -> InvariantFactors:
    lat = end_lattice(psi, p)
    return invariant_factors_from_lattice(lat)


def invariant_factors_from_lattice(lat: EndLattice) -> InvariantFactors:
    r = len(lat.basis)
    base = lat.red.source.tower.base_field
    coords = [Poly.one(base) if i == 0 else Poly.zero(base) for i in range(r)]
    rows = [list(coords)]
    for _ in range(r - 1):
        coords = _coords_mul(lat, coords, lat.pi_coords)
        rows.append(list(coords))
    factors = smith_normal_form(rows)
    if factors[0].degree() != 0:
        raise DrinfeldError("first invariant factor must be a unit (1 lies in A[pi])")
    return InvariantFactors(factors=[f.monic() for f in factors[1:]])


def disc_check(psi: DrinfeldModule, p: Poly) -> tuple[bool, dict]:
    """Discriminant identity disc(P) A = disc(E) (b_1 ... b_{r-1})^2."""
    if psi.rank % psi.tower.char == 0:
        raise DrinfeldError("disc identity needs gcd(r, q) = 1")
    lat = end_lattice(psi, p)
    red = lat.red
    base = psi.base
    weil = weil_rank2_reduced(red) if psi.rank == 2 else weil_motive(red)
    disc_p = discriminant(weil.x_coeff_list(), base)
    r = psi.rank
    # trace vector of the regular representation: Tr(e_j) = sum_l t_{j l l}
    trace_vec = []
    for j in range(r):
        acc = Poly.zero(base)
        for l in range(r):
            acc = acc + lat.tensors[j][l][l]
        trace_vec.append(acc)
    gram = [
        [
            sum(
                (lat.tensors[i][j][k] * trace_vec[k] for k in range(r)),
                Poly.zero(base),
            )
            for j in range(r)
        ]
        for i in range(r)
    ]
    disc_e = ring_det(gram)
    bfac = invariant_factors_from_lattice(lat)
    bprod = Poly.one(base)
    for b in bfac.factors:
        bprod = bprod * b
    ok = (
        not disc_p.is_zero()
        and not disc_e.is_zero()
        and disc_p.monic() == (disc_e.monic() * bprod * bprod).monic()
    )
    report = {
        "disc_weil": disc_p,
        "disc_lattice_monic": disc_e.monic() if not disc_e.is_zero() else disc_e,
        "b_factors": bfac.factors,
    }
    return ok, report
