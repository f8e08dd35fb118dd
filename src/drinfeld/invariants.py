"""Frobenius invariants of reductions: Weil polynomials, the rank-2 conductor
b_p and discriminant delta_p, the invariant factors b_1 | ... | b_(r-1) of
End(psi x F_p) over A[pi], and the endomorphism lattice.

The Weil polynomial of every rank takes one route, ``weil_motive``: the
characteristic polynomial of Frobenius on the Anderson motive, read off the
principal minors of the matrix Pi over F_p[T] that the reduction builds once
by the window recurrence of ``modules.motive_batch`` (derived there), and
projected to A like every invariant read off Pi (``_project``).  The skew identity
P(tau^deg p) = 0, one Horner pass in psibar_T (``_identities_hold``),
certifies every polynomial it returns, and ``weil_general`` (torsion
Frobenius matrices glued by CRT) stays as the tests' independent oracle.
Both passes run for many primes at once (``weil_batch``): one stacked
recurrence and one stacked Horner pass, whose certified polynomials
``weil_motive`` then returns.  A single reduction is a batch of one.  The
invariant factors come from the same Pi over F_p[T]
(``motive_invariant_factors``): in rank >= 3 a unit gcd of a few maximal
minors proves them trivial, and otherwise one Smith normal form gives them;
``b_invariants`` is the one place that picks their route.  In rank 2,
b_p^2 divides d = a_p^2 - 4 u_p p (d != 0) in every characteristic, so b_p
is the gcd of gcd(d, d') with the motive entries taken mod it, 1 where d
is squarefree, and no Smith form runs; the conductor loop (factoring d, then skew
right-division membership) is the tests' oracle ``conductor_b_p``.  The
endomorphism lattice is the b's second route: ``--full-checks``,
``disc_check`` and the tests run it, the survey does not.  The
cross-checks are part of the acceptance gate."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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
    SingularMatrixError,
    TowerMembershipError,
)
from .fields import FFElem
from .modules import DrinfeldModule, ReducedModule, motive_batch, reduce_at
from .polys import (
    Poly,
    crt,
    enumerate_monic_irreducibles,
    factorize,
    poly_gcd,
    powint,
    remainder_matrix,
    squarefree_split,
)
from .skew import SkewPoly, left_blocks, left_mul, skew_right_divmod
from .textio import poly_to_text
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

    @cached_property
    def disc(self) -> Poly:
        """disc(P): d = c_1^2 - 4 c_0 in rank 2, else a resultant
        (``amatrix.discriminant``)."""
        field = self.prime.field
        if self.rank == 2:
            c0, c1 = self.coeffs
            return c1 * c1 - c0.scale(field.tower.from_int(4))
        return discriminant(self.x_coeff_list(), field)


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
# rank-2 names


def u_invariant(psi: DrinfeldModule, p: Poly) -> FFElem:
    """(-1)^deg(p) * Norm(g_2 mod p)^(-1) in F_q."""
    return weil_rank2(psi, p).unit


def weil_rank2(psi: DrinfeldModule, p: Poly) -> WeilPolynomial:
    """Weil polynomial x^2 + a_p x + u_p p."""
    return weil_rank2_reduced(reduce_at(psi, p))


def weil_rank2_reduced(red: ReducedModule) -> WeilPolynomial:
    """``weil_motive`` of a rank-2 reduction."""
    if red.rank != 2:
        raise RankError("weil_rank2 needs rank 2")
    return weil_motive(red)


# ---------------------------------------------------------------------------
# any rank: Frobenius on the Anderson motive over F_p[T]


def weil_identity_holds(red: ReducedModule, weil: WeilPolynomial) -> bool:
    """P(tau^deg p) = 0 in F_p{tau} for one reduction, by the stacked pass
    (``_identities_hold``) on a batch of one."""
    m = red.ctx.degree
    blocks = np.array([[np.zeros((m, m), np.int64) if k is None else k for k in red.psibar_blocks]])
    return _identities_hold([red], [weil], blocks)[0]


def _checked_weil(red: ReducedModule, weil: WeilPolynomial) -> WeilPolynomial:
    """``weil``, unless P(tau^deg p) != 0, which raises."""
    if not weil_identity_holds(red, weil):
        raise DrinfeldError("Weil polynomial fails the skew identity")
    return weil


def weil_motive(red: ReducedModule) -> WeilPolynomial:
    """Weil polynomial det(x - Pi) of Frobenius on the Anderson motive, from
    Pi over F_p[T] (``modules.motive_batch``), certified by the skew
    identity; the polynomial a survey chunk certified already
    (``weil_batch``), where there is one."""
    return red.weil or _checked_weil(red, _weil_from_minors(red))


def _weil_from_minors(red: ReducedModule) -> WeilPolynomial:
    """det(x - Pi) over F_p[T], not yet certified.

    c_(r-s) = (-1)^s (sum of the principal s-minors of Pi): the trace, the
    2-minors as one stacked product (``_FieldCtx.poly_dot``), larger ones by
    cofactors; each is projected to A (``_project``) and meets the Riemann
    hypothesis, deg c_(r-s) <= s n / r.  c_0 = u p, u = (-1)^(r + n (r-1)) / N(g_r).
    """
    ctx, r, n, p0 = red.ctx, red.rank, red.deg_p, red.ctx.char
    powers, ninv = red.motive
    pi = powers[0, :, :, : (n + r - 1) // r + 1]  # Pi's rows are R_n .. R_(n+r-1)
    sums = [np.trace(pi) % p0]  # sums[s - 1]: the s-minors, summed
    if r >= 3:
        # Pi_ii Pi_jj and -Pi_ij Pi_ji for i < j, from Pi's r^2 entries
        pairs = list(combinations(range(r), 2))
        flat = pi.reshape(r * r, *pi.shape[2:])
        a = flat[[i * (r + 1) for i, _ in pairs] + [i * r + j for i, j in pairs]]
        b = flat[[j * (r + 1) for _, j in pairs] + [j * r + i for i, j in pairs]]
        a[len(pairs):] = -a[len(pairs):] % p0
        sums.append(ctx.poly_dot(a, b))
    if r >= 4:
        entries = [[Poly(ctx, ctx.array_elems(x)) for x in row] for row in pi]
        for size in range(3, r):
            minors = sum((ring_det([[entries[u][v] for v in c] for u in c])
                          for c in combinations(range(r), size)), Poly.zero(ctx))
            sums.append(ctx.coeff_array(minors.coeffs))
    unit = -ninv if (r + n * (r - 1)) % 2 else ninv
    coeffs = [red.prime.scale(unit)]
    for s in range(r - 1, 0, -1):
        c = _project(red, -sums[s - 1] % p0 if s % 2 else sums[s - 1])
        if r * c.degree() > s * n:
            raise DrinfeldError("Riemann hypothesis bound violated; this is an implementation bug")
        coeffs.append(c)
    return WeilPolynomial(prime=red.prime, coeffs=tuple(coeffs), unit=unit)


def _project(red: ReducedModule, rows: np.ndarray) -> Poly:
    """The polynomial in A whose coefficients are the F_p elements with the
    prime coordinates ``rows``; TowerMembershipError unless all lie in F_q."""
    tower, base = red.source.tower, red.source.base
    emb = tower.embedding(base, red.ctx)
    low = (rows @ emb.left_inverse.T) % tower.char
    if ((low @ emb.matrix.T - rows) % tower.char).any():
        raise TowerMembershipError("a coefficient does not lie in F_q")
    return Poly(base, base.array_elems(low))


def weil_batch(reds: list[ReducedModule]) -> None:
    """The Weil polynomials of a survey chunk: reductions of one module at
    primes of one degree on one residue field context.

    One stacked recurrence (``modules.motive_batch``) fills every
    reduction's motive and psibar_T blocks; each Weil polynomial is read off
    its own Pi over F_p[T] as ``weil_motive`` reads it; one stacked Horner pass
    (``_identities_hold``) checks P(pi) = 0 for all of them.  Only a
    polynomial that passes is cached (``ReducedModule.weil``); a prime whose
    polynomial fails, or whose reading raises, is left to ``weil_motive``,
    which meets the same failure there.
    """
    blocks = motive_batch(reds)
    live, weils = [], []
    for i, red in enumerate(reds):
        try:
            weils.append(_weil_from_minors(red))
        except Exception:
            continue  # weil_motive meets the failure again, in the record
        live.append(i)
    held = _identities_hold([reds[i] for i in live], weils, blocks[live])
    for i, weil, ok in zip(live, weils, held):
        if ok:
            reds[i].weil = weil


def _identities_hold(reds: list[ReducedModule], weils: list[WeilPolynomial],
                     blocks: np.ndarray) -> list[bool]:
    """P(tau^deg p) = tau^(n r) + sum_i psibar(c_i) tau^(n i) = 0 in F_p{tau}
    for each reduction and its polynomial, checked exactly on one stacked
    (P, height, m) prime-coordinate array; ``blocks`` are their psibar_T
    blocks as ``modules.motive_batch`` stacks them.

    The T^k coefficient c_(i,k) of c_i lies in F_q, so it commutes with tau,
    and the sum is sum_k psibar_T^k L_k with L_k = sum_i c_(i,k) tau^(n i):
    one Horner pass acc <- psibar_T acc + L_k over k, deg c_0 = n steps.
    Row t of psibar_T acc is sum_j K_j acc_(t-j), one product of the rows
    t - s .. t of acc, read as one window, with the blocks stacked in
    reverse (s = deg psibar_T).  The accumulator grows only as tall as the
    terms added so far reach, and as the tallest prime's does; the others'
    rows above their own height stay zero, since psibar_T times zero rows is
    zero, so each prime's rows are exactly its own pass's, zero-padded, and
    the end test reads the same: P(pi) = 0 iff the rows are -tau^(n r)."""
    if not reds:
        return []
    red0 = reds[0]
    ctx, n, r, base = red0.ctx, red0.deg_p, weils[0].rank, red0.source.base
    P, m, p0, s = len(reds), ctx.degree, ctx.char, blocks.shape[1] - 1
    emb = red0.source.tower.embedding(base, ctx).matrix
    # consts[u, k, i] = c_(i,k) of prime u in prime coordinates; tops[k] = the
    # largest i with c_(i,k) != 0 for some prime (-1: none), so L_k has
    # tau-degree n tops[k]; no accumulator, and no -tau^(n r), is taller than H
    flat = [(u, k, i, x) for i in range(r) for u, weil in enumerate(weils)
            for k, x in enumerate(weil.coeffs[i].coeffs)]
    us, ks, idx, xs = zip(*flat)
    consts = np.zeros((P, max(ks) + 1, r, m), dtype=np.int64)
    consts[us, ks, idx] = (base.coeff_array(xs) @ emb.T) % p0
    tops = [-1] * consts.shape[1]
    for _, k, i, x in flat:  # i never decreases along flat
        if x:
            tops[k] = i
    H = max([n * r + 1] + [n * i + 1 + s * k for k, i in enumerate(tops) if i >= 0])
    # buf rows s .. s + h - 1 hold the accumulator and the others stay zero;
    # win[:, t] is rows t .. t + s of buf, flat (buf has H + 2 s rows, so no
    # window runs past it), and kb stacks K_s^T .. K_0^T to match
    buf = np.zeros((P, H + 2 * s, m), dtype=np.int64)
    win = np.lib.stride_tricks.as_strided(buf, (P, H + s, (s + 1) * m), buf.strides, writeable=False)
    kb = blocks[:, ::-1].transpose(0, 1, 3, 2).reshape(P, (s + 1) * m, m)
    h = 0
    for k in range(len(tops) - 1, -1, -1):
        if h:
            # an entry sums (s + 1) m products below 2 p^2, far inside int64
            buf[:, s : 2 * s + h] = (win[:, : h + s] @ kb) % p0
            h += s
        i = tops[k]
        if i >= 0:
            # entries below 2 p; the next product and the check below reduce them
            buf[:, s : s + n * i + 1 : n] += consts[:, k, : i + 1]
            h = max(h, n * i + 1)
    buf[:, s + n * r, 0] += 1
    return (~(buf % p0).any(axis=(1, 2))).tolist()


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
    quot, rem = divmod(coeffs[0], red.prime)
    if not rem.is_zero() or quot.degree() != 0:
        raise DrinfeldError("constant Weil coefficient is not unit * p")
    return _checked_weil(red, WeilPolynomial(prime=red.prime, coeffs=tuple(coeffs), unit=quot[0]))


# ---------------------------------------------------------------------------
# the b's: the rank-2 gcd, else the motive minors and Smith form


def b_invariants(red: ReducedModule, weil: WeilPolynomial) -> list[Poly]:
    """The monic b_1 | ... | b_(r-1) of End(psi x F_p) over A[pi], from the
    Weil polynomial ``weil`` of ``red``: none in rank 1.

    In rank 2, b_p is the gcd of the entries of the motive matrix W, and
    b_p^2 | d = disc(P) whenever d != 0 (Gekeler, Trans. AMS 360, 2008), so
    b_p = gcd(g, W mod g) for g = gcd(d, d') (``_rank2_b``), and a
    squarefree d (g = 1) proves b_p = 1; no Smith form runs.  In rank >= 3
    a unit gcd of a few (r-1)-minors of W proves every b_i = 1, and only
    otherwise is its Smith form taken (``motive_invariant_factors``).
    """
    if red.rank < 2:
        return []
    if red.rank == 2:
        d = weil.disc
        g = poly_gcd(d, d.derivative())
        return [g if g.is_one() else _rank2_b(red, g)]
    return motive_invariant_factors(red).factors


def _rank2_b(red: ReducedModule, g: Poly) -> Poly:
    """b_p = gcd(g, Pi_01, Pi_10, Pi_11 - Pi_00) for g = gcd(d, d') != 1, or
    of the three entries when g = 0 (d = 0).  One product with the prime
    matrix of reduction mod g (``remainder_matrix``) takes the entries, D x m
    windows of the motive recurrence, mod g, so the gcds run at degree
    < deg g; a nonzero constant makes the gcd 1.  b_p lies in F_q[T]."""
    tower, ctx = red.source.tower, red.ctx
    base, p0, m = tower.base_field, ctx.char, ctx.degree
    pi = red.motive[0][0]
    w = np.stack([pi[0, 1], pi[1, 0], (pi[1, 1] - pi[0, 0]) % p0])
    h = np.zeros((0, m), dtype=np.int64)
    if not g.is_zero():
        h = (base.coeff_array(g.coeffs) @ tower.embedding(base, ctx).matrix.T) % p0
        w = (w.reshape(3, -1) @ remainder_matrix(ctx, h, w.shape[1]).T) % p0
        w = w.reshape(3, g.degree(), m)
    for x in w:
        if x.any():  # a nonzero constant x makes the gcd 1 with no Euclid
            h = ctx.poly_gcd(h, x) if x[1:].any() else x[:1]
        if len(h) == 1:
            return Poly.one(base)
    if not len(h):
        raise DrinfeldError("Frobenius on the motive is scalar")  # unreachable
    return _project(red, h)


def rank2_invariants(psi: DrinfeldModule, p: Poly) -> Rank2Invariants:
    if psi.rank != 2:
        raise RankError("rank-2 invariants need rank 2")
    if psi.tower.q % 2 == 0:
        raise EvenCharacteristicError("rank-2 invariants need odd q")
    red = reduce_at(psi, p)
    return rank2_invariants_reduced(red)


def rank2_invariants_reduced(red: ReducedModule) -> Rank2Invariants:
    """a_p, u_p, d = a_p^2 - 4 u_p p = b_p^2 delta_p and the conductor b_p,
    the index of A[pi] in End(psi x F_p), from ``b_invariants``.
    ``conductor_b_p`` is the tests' second route."""
    weil = weil_rank2_reduced(red)
    a_p, u_p, d = weil.coeffs[1], weil.unit, weil.disc
    (b_p,) = b_invariants(red, weil)
    delta = d if b_p.is_one() else d.exact_div(b_p * b_p)
    return Rank2Invariants(
        a_p=a_p,
        u_p=u_p,
        d=d,
        b_p=b_p,
        delta_p=delta,
        supersingular=a_p.is_zero(),
        weil=weil,
    )


def conductor_b_p(red: ReducedModule, a_p: Poly, d: Poly) -> Poly:
    """The monic b_p by the conductor loop, the oracle of
    ``rank2_invariants_reduced``: for each prime power l^e with l^(2e) | d,
    whether (2 pi + a_p) / l^e lies in End(psi x F_p), by skew
    right-division."""
    b_p = Poly.one(red.source.base)
    for ell, mult in factorize(squarefree_split(d).conductor_part).factors:
        best = 0
        for e in range(1, mult + 1):
            if _membership(red, a_p, powint(ell, e)):
                best = e
            else:
                break
        if best:
            b_p = b_p * powint(ell, best)
    return b_p.monic()


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
# End(psi x F_p) is read off the commutant of psibar_T = t + g_1 tau + ... +
# g_r tau^r in tau-degree <= D, solved one tau-coefficient at a time as in
# Garai and Papikian, "Computing endomorphism rings and Frobenius matrices of
# Drinfeld modules", J. Number Theory (2022).  For e = sum_k e_k tau^k, the
# tau^k coefficient of e psibar_T - psibar_T e is
#
#     sum_{j=0..r} (M(g_j^(q^(k-j))) - K_j) e_(k-j),
#
# with K_j = M(g_j) Phi^(e j) the blocks of psibar_T.  At j = 0 the block is
# multiplication by t^(q^k) - t, a unit exactly when n = deg p does not
# divide k.  So e_k follows from e_(k-1), ..., e_(k-r) when n does not divide
# k.  At k = 0, n, 2n, ... e_k is a free m-block, and the equation at k is a
# constraint on the blocks below it; so are the r equations at k = D+1..D+r.
# The solutions are m (floor(D/n) + 1) free prime coordinates cut down by
# those constraints.  The blocks depend only on k mod n, and the recursion at
# D is a prefix of the one at any larger window, so one ``Commutant`` per
# lattice grows with the window.  A commutant element of tau-degree <= D is
# therefore fixed by its free blocks e_0, e_n, e_2n, ...
#
# ``Commutant.solutions`` returns the rref-canonical basis of the dense system
# e psibar_T = psibar_T e in the prime coordinates of e_0, ..., e_D: for each
# free column, the solution that is 1 there and 0 at the other free columns.
# A column is free exactly when it is the last nonzero coordinate of some
# solution, i.e. a pivot of the rref of the solutions with their columns
# reversed; that rref is the canonical basis.  The commutant at D is the one
# at any W > D cut to tau-degree <= D, so its canonical basis is the W
# solutions with at most D+1 rows.
#
# Every element the lattice handles lies in the commutant, so it is named by
# its free blocks alone (``_free_blocks``): m (floor(D/n) + 1) prime
# coordinates, not (D+1) m, and the map is injective on the commutant at D.
# The A-span of a candidate basis is one matrix of free blocks,
# ``_span_columns``.  Its columns y^t psibar_T^u b come from a ``_Krylov``
# cache, which forms each product psibar_T^u b once and grows with the
# window; the y-multiples multiply each block by M(y).  A span is the row
# space (``linalg.RowSpace``) of those columns, so a solution lies in it
# exactly when its free blocks do, and the span has rank len(sols) exactly
# when it is the whole commutant at D.  ``end_lattice_reduced`` walks the
# windows D = n + 2r, n + 4r, ...; each step solves the commutant once at
# W = D + 2r, cuts the solutions at D from it, chooses a basis greedily at D,
# and stops when the basis spans the solutions at D and at W (one more window
# of 2r brings nothing new).  One solve on the same free-block matrix at the
# largest target degree gives the coordinates of the products e_i e_j (i, j >
# 1; e_1 = 1) and of pi = tau^n.

# The window D grows by 2r per step; the stability window D + 2r is capped at
# 4 (n + r^2).
WINDOW_CAP_FACTOR = 4

log = logging.getLogger(__name__)


def end_lattice(psi: DrinfeldModule, p: Poly) -> EndLattice:
    return end_lattice_reduced(reduce_at(psi, p))


def _pad(x: np.ndarray, cols: int) -> np.ndarray:
    out = np.zeros((x.shape[0], cols), dtype=np.int64)
    out[:, : x.shape[1]] = x
    return out


class Commutant:
    """The tau-degree recursion of one reduced module, grown on demand.

    ``steps[i]``, for i = 0..n-1, holds the block M((t^(q^i) - t)^-1) (None
    at i = 0) and the blocks M(g_j^(q^i)) - K_j, j = 1..r (None where
    g_j = 0).  ``blocks[k]`` is the m x m (floor(k/n) + 1) prime matrix of e_k
    in terms of the free blocks e_0, e_n, ..., and ``constraints[c]`` the
    equation at k = (c + 1) n in the free blocks below k.  Each call of
    ``solutions`` grows the recursion to its window and eliminates once.
    """

    def __init__(self, red: ReducedModule):
        ctx, tower = red.ctx, red.source.tower
        self.n, self.r, self.m, self.p0 = red.deg_p, red.rank, ctx.degree, ctx.char
        n, p0, t = self.n, self.p0, red.residue.t_image
        # M(g^q) = Phi M(g) Phi^-1 for the q-power map Phi, and Phi^-1 = Phi^(n-1)
        frob = ctx.frob_p_matrix(tower.base_degree)
        back = ctx.frob_p_matrix(tower.base_degree * (n - 1))
        mults = [ctx.mult_matrix(g.coords) for g in red.psibar_T.coeffs[1:]]
        self.steps = []
        for i in range(n):
            inv = None
            if i:
                mults = [((frob @ x) % p0 @ back) % p0 for x in mults]
                inv = ctx.mult_matrix((tower.frobenius_power(t, i) - t).inv().coords)
            blocks = [
                None if kj is None else (x - kj) % p0
                for x, kj in zip(mults, red.psibar_blocks[1:])
            ]
            self.steps.append((inv, blocks))
        self.blocks = [np.eye(self.m, dtype=np.int64)]
        self.constraints: list[np.ndarray] = []

    def _equation(self, k: int, lo: int) -> np.ndarray:
        """The terms j = lo..r (lo >= 1) of the tau^k equation, in the free
        blocks of e_(k-lo).  An entry sums at most r products of two
        residues, below r m p^2, so one reduction at the end is exact."""
        acc = np.zeros((self.m, self.blocks[k - lo].shape[1]), dtype=np.int64)
        for j in range(lo, min(self.r, k) + 1):
            bj = self.steps[(k - j) % self.n][1][j - 1]
            if bj is not None:
                x = self.blocks[k - j]
                acc[:, : x.shape[1]] += bj @ x
        return acc % self.p0

    def _grow(self, D: int) -> None:
        m, p0 = self.m, self.p0
        for k in range(len(self.blocks), D + 1):
            acc = self._equation(k, 1)
            if k % self.n:
                self.blocks.append((-(self.steps[k % self.n][0] @ acc)) % p0)
            else:
                self.constraints.append(acc)
                free = np.zeros((m, acc.shape[1] + m), dtype=np.int64)
                free[:, acc.shape[1]:] = np.eye(m, dtype=np.int64)
                self.blocks.append(free)

    def solutions(self, D: int) -> list[np.ndarray]:
        """The canonical solutions e of e psibar_T = psibar_T e with
        tau-degree <= D (see the comment above), as prime-coordinate arrays
        without zero top rows, in (degree, code) order."""
        self._grow(D)
        m, p0 = self.m, self.p0
        cols = m * (D // self.n + 1)
        cons = self.constraints[: D // self.n]
        cons += [self._equation(k, k - D) for k in range(D + 1, D + self.r + 1)]
        params = linalg.nullspace(np.concatenate([_pad(c, cols) for c in cons]), p0)
        lin = np.concatenate([_pad(x, cols) for x in self.blocks[: D + 1]])
        out = []
        # an entry of params @ lin.T sums `cols` products below p^2 < 2^28;
        # the rref with reversed columns is the canonical basis (see above)
        ech, pivots = linalg.rref(((params @ lin.T) % p0)[:, ::-1], p0)
        for rowv in ech[: len(pivots), ::-1]:
            x = rowv.reshape(D + 1, m)
            out.append(x[: np.flatnonzero(x.any(axis=1))[-1] + 1])
        # (degree, codes) order: a code sum_i c_i p^i compares as the reversed row
        out.sort(key=lambda x: (len(x), x[:, ::-1].tolist()))
        return out


def _free_blocks(x: np.ndarray, n: int, D: int) -> np.ndarray:
    """Prime coordinates of the rows 0, n, 2n, ... <= D of a skew array,
    zero-padded to m (floor(D/n) + 1): the free blocks, which fix an element
    of the commutant of tau-degree <= D (see above)."""
    rows = x[: D + 1 : n]
    out = np.zeros((D // n + 1, x.shape[1]), dtype=np.int64)
    out[: len(rows)] = rows
    return out.ravel()


class _Krylov:
    """The products psibar_T^u b of each basis candidate b, u = 0, 1, ...;
    each is formed once, and the sequence grows with the window."""

    def __init__(self, red: ReducedModule):
        self.red = red
        self.seqs: dict[bytes, list[np.ndarray]] = {}

    def powers(self, b: np.ndarray, D: int) -> list[np.ndarray]:
        """The psibar_T^u b for every u with tau-degree deg b + r u <= D."""
        red = self.red
        seq = self.seqs.setdefault(b.tobytes(), [b])
        need = (D + 1 - len(b)) // red.rank + 1
        while len(seq) < need:
            seq.append(left_mul(red.psibar_blocks, seq[-1], red.ctx.char))
        return seq[:need]


def _span_columns(
    krylov: _Krylov, basis: list[np.ndarray], D: int
) -> tuple[np.ndarray, list[int]]:
    """Free-block matrix of the A-span of the basis, truncated at tau-degree D.

    The columns are the free blocks of y^t psibar_T^u b for each b in turn,
    every u with tau-degree <= D and t < e, in (b, u, t) order; their prime
    span is the F_q-span of the psibar_T^u b.  Also returns the number of
    T-powers u taken for each b.
    """
    red = krylov.red
    tower, ctx, n = red.source.tower, red.ctx, red.deg_p
    e = tower.base_degree
    seqs = [krylov.powers(b, D) for b in basis]
    vecs = np.stack([_free_blocks(x, n, D) for seq in seqs for x in seq], axis=1)
    if e > 1:
        # M(y) on every block, i.e. kron(I, M(y)), on all columns at once;
        # y^t times column c becomes column c e + t
        y = tower.embed(tower.gen(tower.base_field), ctx)
        blocks = vecs.reshape(D // n + 1, ctx.degree, -1)
        orbit = linalg.orbits([blocks], ctx.mult_matrix(y.coords), e, ctx.char)
        vecs = np.stack(orbit, axis=3).reshape(len(vecs), -1)
    return vecs, [len(s) for s in seqs]


def _span_space(
    krylov: _Krylov, basis: list[np.ndarray], D: int,
    space: linalg.RowSpace | None = None,
) -> linalg.RowSpace:
    """The span of the basis at D, its free-block columns, added to
    ``space`` (a new row space by default)."""
    mat = _span_columns(krylov, basis, D)[0]
    if space is None:
        space = linalg.RowSpace(len(mat), krylov.red.ctx.char)
    for col in mat.T:
        space.add(col)
    return space


def end_lattice_reduced(red: ReducedModule) -> EndLattice:
    n = red.deg_p
    r = red.rank
    ctx = red.ctx
    m = ctx.degree
    p0 = red.source.tower.char
    cap = WINDOW_CAP_FACTOR * (n + r * r)
    commutant = Commutant(red)
    krylov = _Krylov(red)

    D = n + 2 * r
    while True:
        W = D + 2 * r  # the stability window, and the next D
        if W > cap:
            raise InconclusiveBasisError(f"no stable lattice basis within the window cap {cap}")
        sols_w = commutant.solutions(W)
        sols = [x for x in sols_w if len(x) <= D + 1]
        basis = [np.array([ctx.one_coords()], dtype=np.int64)]  # e_1 = 1 always lies in E
        space = _span_space(krylov, basis, D)
        for s in sols:
            if len(basis) == r:
                break
            if not space.contains(_free_blocks(s, n, D)):
                basis.append(s)
                _span_space(krylov, [s], D, space)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "lattice p=%s window D=%d: commutant %d parameter columns, %d constraint "
                "rows, %d solutions; basis %d of %d",
                poly_to_text(red.prime), D, m * (D // n + 1), m * (D // n + r),
                len(sols), len(basis), r,
            )
        if (
            len(basis) == r
            and space.rank == len(sols)
            and _span_space(krylov, basis, W).rank == len(sols_w)
        ):
            break
        D = W

    # coordinates of the products e_i e_j and of pi = tau^n, by one solve
    # against the span matrix at the largest target degree, on the free
    # blocks of the columns and the targets (every one commutes with
    # psibar_T).  The basis is free over A, so the solution is unique.  e_1 =
    # 1, so the products 1 e_j and e_i 1 are unit vectors and are not solved
    # for.
    tau_n = np.zeros((n + 1, m), dtype=np.int64)
    tau_n[n, 0] = 1
    targets = []
    for bi in basis[1:]:
        blocks = left_blocks(ctx, bi)
        targets += [left_mul(blocks, bj, p0) for bj in basis[1:]]
    targets.append(tau_n)
    top = max(len(t) for t in targets) - 1
    mat, counts = _span_columns(krylov, basis, top)
    rhs = np.stack([_free_blocks(t, n, top) for t in targets], axis=1)
    sol = linalg.solve(mat, rhs, p0)
    if sol is None:
        raise InconclusiveBasisError("element does not lie in the A-span of the basis")
    coords = iter([_coords(sol[:, k], counts, red) for k in range(len(targets))])
    base = red.source.tower.base_field
    unit = [[Poly.one(base) if k == i else Poly.zero(base) for k in range(r)] for i in range(r)]
    tensors = [
        [unit[i + j] if i == 0 or j == 0 else next(coords) for j in range(r)] for i in range(r)
    ]
    return EndLattice(
        red=red,
        basis=[SkewPoly.from_array(ctx, b) for b in basis],
        tensors=tensors,
        pi_coords=next(coords),
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
        out.append(Poly(base, base.array_elems(block)))
    return out


# ---------------------------------------------------------------------------
# invariant factors and the discriminant identity


def motive_invariant_factors(red: ReducedModule) -> InvariantFactors:
    """b_1 | ... | b_{r-1} from the powers of the matrix Pi of pi on the
    Anderson motive (``ReducedModule.motive``), with no endomorphism lattice.

    Anderson's functor is fully faithful, so End(psi x F_p) is the set of x in
    F(pi) with x M in M, M = F_p{tau} free of rank r over F_p[T].  Tensoring
    with F_p over F_q is flat, so the Smith invariants over F_p[T] of the r^2 x
    r matrix [vec(I) | vec(Pi) | .. | vec(Pi^(r-1))] are 1, b_1, .., b_(r-1).
    Subtracting the row of entry (0, 0) from those of (i, i) makes vec(I) the
    unit vector at (0, 0), so the b's are the Smith invariants of the
    (r^2 - 1) x (r - 1) matrix W of the entries Pi^j_ik (i != k) and Pi^j_ii -
    Pi^j_00 (i >= 1), j = 1..r-1.  Pi^j is a window of the motive recurrence,
    so W is formed on arrays and becomes polynomials row by row, as needed.

    In rank >= 3 a certificate comes first: b_1 ... b_(r-1) is the gcd of
    the (r-1)-minors of W (determinantal divisors over a PID; Newman,
    *Integral Matrices*, 1972, ch. II), so a unit gcd of a few of them,
    taken until the first unit, proves every b_i = 1 in every
    characteristic.  Only where it fails does the Smith form run.
    Each factor is projected to A (``_project``), which raises unless it
    lies in F_q[T].  In rank 2 ``b_invariants`` takes the gcd of
    W's three entries mod gcd(d, d') instead (``_rank2_b``), and this Smith
    form is the tests' second route there.
    """
    ctx, r, base = red.ctx, red.rank, red.source.base
    powers = red.motive[0]
    i, k = np.nonzero(~np.eye(r, dtype=bool))
    diag = (powers[:, range(1, r), range(1, r)] - powers[:, :1, 0]) % ctx.char
    entries = np.concatenate([powers[:, i, k], diag], axis=1).swapaxes(0, 1)
    rows: dict[int, list[Poly]] = {}

    def row(u: int) -> list[Poly]:
        if u not in rows:
            rows[u] = [Poly(ctx, ctx.array_elems(x)) for x in entries[u]]
        return rows[u]

    if r >= 3:
        # the r + 1 consecutive blocks of r - 1 rows, then the even and the
        # odd rows: in rank 3 (0,1), (2,3), (4,5), (6,7), (0,2), (1,3)
        s = r - 1
        rsets = [range(j * s, (j + 1) * s) for j in range(r + 1)]
        g = Poly.zero(ctx)
        for rset in rsets + [range(0, 2 * s, 2), range(1, 2 * s, 2)]:
            minor = ring_det([row(u) for u in rset])
            g = minor if g.is_zero() else poly_gcd(g, minor)
            if g.degree() == 0:  # a unit
                return InvariantFactors(factors=[Poly.one(base)] * (r - 1))
    try:
        factors = smith_normal_form([row(u) for u in range(len(entries))])
    except SingularMatrixError:
        raise DrinfeldError(
            "Frobenius powers on the motive are dependent; this is an implementation bug"
        ) from None
    return InvariantFactors(factors=[_project(red, ctx.coeff_array(f.coeffs)) for f in factors])


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
    """The b's read off the endomorphism lattice, the second route of
    ``motive_invariant_factors``."""
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
    disc_p = weil_motive(red).disc
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
