"""Brute-force a-torsion of a reduced Drinfeld module, with its Frobenius matrix.

The splitting degree s is found first, as the order of the motive Frobenius
pi = tau^(deg p) on M/aM (``modules.motive_frobenius`` reduced mod a): m(x)
pairs M/aM nondegenerately with psi[a], and pi m pairs with x as m with Frob x.
Then the one splitting field F_{p^s} is built in the tower and the kernel is
extracted by linear algebra over the prime field; its prime dimension is
checked, so an s whose field does not hold psi[a] cannot pass.

All linear algebra here runs on the prime-field kernel in ``linalg``.  With
q = p0^e, an F_q-vector of length k is written as its k blocks of e prime
coordinates (the ``FFElem.coords`` of each entry), and the F_q-span of some
vectors is the prime span of their multiples v, y v, ..., y^(e-1) v by the
generator y of F_q.  T and Frobenius act on an F_q-basis of the kernel by
prime matrices on these blocks.

Generators are chosen greedily: walk kernel elements by code (the base-p0
digits of the code, low digit first, are the block coordinates), keep the
first element whose A-order modulo the current span is a, and repeat r times;
Frobenius images are expressed through the evaluation map (A/aA)^r -> psi[a]
by solving one linear system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CoprimalityError,
    DrinfeldError,
    ResourceLimitError,
)
from .fields import FFElem, FieldId, _FieldCtx
from .linalg import orbits
from .modules import DrinfeldModule, ReducedModule, motive_frobenius, reduce_at
from .polys import Poly, factorize, poly_gcd
from .quotients import QuotElem, QuotRing, mat_is_identity, mat_mul
from .skew import skew_eval
from .amatrix import ring_det, smith_normal_form


# Largest prime dimension q^(r deg a) * [F_p:prime] of the torsion problem,
# i.e. |psi[a]| times the degree of F_p.  ``_greedy_module_basis`` walks up to
# q^(r deg a) element codes, so a larger psi[a] is refused before any work.
MAX_QUOTIENT_DIM = 4096


# ---------------------------------------------------------------------------
# torsion basis


@dataclass
class TorsionBasis:
    modulus: Poly
    splitting_s: int
    splitting_extension: FieldId
    generators: list[FFElem]
    frobenius_matrix: list[list[QuotElem]]
    ring: QuotRing
    # an F_q-basis b_1..b_k of psi[a] inside the splitting field; F_q-vectors
    # in the kernel are coordinates in this basis, written as e-blocks
    kernel_basis: list[FFElem]


def torsion_basis(psi: DrinfeldModule, p: Poly, a: Poly) -> TorsionBasis:
    return torsion_basis_reduced(reduce_at(psi, p), a)


def torsion_basis_reduced(red: ReducedModule, a: Poly) -> TorsionBasis:
    a = a.monic()
    if a.degree() < 1:
        raise DrinfeldError("torsion modulus must be nonconstant")
    if poly_gcd(a, red.prime).degree() != 0:
        raise CoprimalityError("torsion modulus must be coprime to the prime")
    tower = red.source.tower
    q = tower.q
    p0 = tower.char
    e = tower.base_degree
    ctx = red.ctx
    n = red.deg_p
    r = red.rank

    sk = red.psibar_of(a)
    coeffs = list(sk.coeffs)
    if coeffs[0].is_zero() or len(coeffs) - 1 != r * a.degree():
        raise DrinfeldError("linearized polynomial is not separable of full degree")
    dim = q ** (r * a.degree()) * ctx.degree
    if dim > MAX_QUOTIENT_DIM:
        raise ResourceLimitError(
            f"torsion quotient F_p[x]/(psibar_a) has prime dimension {dim}, "
            f"above the cap {MAX_QUOTIENT_DIM}"
        )
    s = _splitting_degree(red, a, tower.max_degree // ctx.degree)

    # the splitting field and the kernel inside it
    L = tower.field(ctx.degree * s)
    if L.degree != ctx.degree:
        tower.embedding(ctx, L)
    k_q = r * a.degree()

    # the kernel in L has full dimension exactly when L holds psi[a]: a check
    # on s that does not go through the motive
    lin_op = _linearized_operator(red, coeffs, L)
    null = linalg.nullspace(lin_op, p0)
    if len(null) != e * k_q:
        raise DrinfeldError(
            f"kernel has prime-dimension {len(null)}, expected {e * k_q}"
        )

    base = tower.base_field
    y = tower.gen(base)
    my_L = L.mult_matrix(tower.embed(y, L).coords)
    basis_vecs = _fq_basis_from_nullspace(null, my_L, e, p0, k_q)
    # columns (i, t) = y^t b_i: block coordinates -> prime coordinates in L
    expanded = np.stack(orbits(basis_vecs, my_L, e, p0), axis=1)
    # multiplication by y on block coordinates
    my_blocks = np.kron(np.eye(k_q, dtype=np.int64), base.mult_matrix(y.coords))

    def on_kernel(op: np.ndarray) -> np.ndarray:
        mat = linalg.solve(expanded, (op @ expanded) % p0, p0)
        if mat is None:
            raise DrinfeldError("image leaves the kernel")  # unreachable
        return mat

    t_mat = on_kernel(_linearized_operator(red, list(red.psibar_T.coeffs), L))
    frob_on_kernel = on_kernel(L.frob_p_matrix((e * n) % L.degree))

    gens = _greedy_module_basis(a, t_mat, my_blocks, base, r)

    # evaluation map (A/aA)^r -> kernel, columns (i, k, t) = y^t T^k g_i, and
    # the Frobenius matrix in that basis
    da = a.degree()
    eval_mat = np.stack(orbits(orbits(gens, t_mat, da, p0), my_blocks, e, p0), axis=1)
    sol = linalg.solve(eval_mat, (frob_on_kernel @ np.stack(gens, axis=1)) % p0, p0)
    if sol is None:
        raise DrinfeldError("Frobenius image outside the generated span")
    # blocks[i, k, :, j]: the coefficient of T^k g_i in Frob(g_j)
    blocks = sol.reshape(r, da, e, r)
    ring = QuotRing(a)
    frob_mat: list[list[QuotElem]] = [
        [
            ring.reduce(
                Poly(base, [FFElem(base, tuple(int(c) for c in blocks[i, k, :, j])) for k in range(da)])
            )
            for j in range(r)
        ]
        for i in range(r)
    ]

    if not ring_det(frob_mat).is_unit():
        raise DrinfeldError("torsion Frobenius matrix is not invertible")

    # concrete generators inside L, sanity-killed by psibar_a
    gens_L = []
    for g in gens:
        el = FFElem(L, tuple(int(c) for c in (expanded @ g) % p0))
        if not skew_eval(sk, el).is_zero():
            raise DrinfeldError("generator is not killed by psi_a")  # unreachable
        gens_L.append(el)

    kernel_basis = [FFElem(L, tuple(int(c) for c in b)) for b in basis_vecs]
    return TorsionBasis(
        modulus=a,
        splitting_s=s,
        splitting_extension=L.fid,
        generators=gens_L,
        frobenius_matrix=frob_mat,
        ring=ring,
        kernel_basis=kernel_basis,
    )


def _splitting_degree(red: ReducedModule, a: Poly, limit: int) -> int:
    """Order of pi = tau^(deg p) on M/aM, at most ``limit``.

    That order is the degree s of the splitting field of psi[a] over F_p:
    the pairing <m, x> = m(x) of M/aM with psi[a] is nondegenerate, and
    <pi m, x> = <m, Frob x>, since tau^(deg p) is central in F_p{tau}.
    """
    ring = QuotRing(a.map_coeffs(red.tower_embed_const, red.ctx))
    pi = [[ring.reduce(e) for e in row] for row in motive_frobenius(red)]
    power, s = pi, 1
    while not mat_is_identity(power):
        if s >= limit:
            raise ResourceLimitError(
                f"splitting degree of psi[a] exceeds {limit}: the tower builds "
                f"fields up to degree {red.source.tower.max_degree}"
            )
        power, s = mat_mul(power, pi, ring), s + 1
    return s


def _linearized_operator(red: ReducedModule, coeffs: list[FFElem], L: _FieldCtx) -> np.ndarray:
    """Prime-matrix of x -> sum c_i x^(q^i) acting on L."""
    tower = red.source.tower
    p0 = tower.char
    e = tower.base_degree
    out = np.zeros((L.degree, L.degree), dtype=np.int64)
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        cl = tower.embed(c, L)
        term = (L.mult_matrix(cl.coords) @ L.frob_p_matrix((e * i) % L.degree)) % p0
        out = (out + term) % p0
    return out


def _fq_basis_from_nullspace(
    null: np.ndarray, my: np.ndarray, e: int, p0: int, k_q: int
) -> list[np.ndarray]:
    """The first k_q null vectors that are F_q-independent of the earlier ones."""
    space = linalg.RowSpace(null.shape[1], p0)
    out = []
    for row in null:
        if space.contains(row):
            continue
        out.append(row.copy())
        for w in orbits([row], my, e, p0):
            space.add(w)
        if len(out) == k_q:
            break
    if len(out) != k_q:
        raise DrinfeldError("failed to extract an F_q-basis of the kernel")
    return out


def _greedy_module_basis(
    a: Poly, t_mat: np.ndarray, my_blocks: np.ndarray, base: _FieldCtx, r: int
) -> list[np.ndarray]:
    """r kernel elements whose A-span is free, greedily by element order.

    Candidates are walked by code; the base-p digits of the code, low digit
    first, are the block coordinates of the candidate.  It is kept when no
    maximal divisor d of a kills it modulo the current span.
    """
    p0 = base.char
    dim = my_blocks.shape[0]
    divisor_mats = [_poly_at(a.exact_div(g), t_mat, base) for g, _ in factorize(a).factors]
    span = linalg.RowSpace(dim, p0)
    digit_weights = [p0**i for i in range(dim)]
    gens: list[np.ndarray] = []
    while len(gens) < r:
        found = None
        for code in range(1, p0**dim):
            v = np.array([(code // w) % p0 for w in digit_weights], dtype=np.int64)
            if span.contains(v):
                continue
            if not any(span.contains((d @ v) % p0) for d in divisor_mats):
                found = v
                break
        if found is None:
            raise DrinfeldError("no element of maximal order found")  # unreachable
        gens.append(found)
        for w in orbits(orbits([found], t_mat, a.degree(), p0), my_blocks, base.degree, p0):
            span.add(w)
    if span.rank != dim:
        raise DrinfeldError("torsion module basis does not span")  # unreachable
    return gens


def _poly_at(d: Poly, t_mat: np.ndarray, base: _FieldCtx) -> np.ndarray:
    """Prime matrix of d(T) on block coordinates, by Horner."""
    p0 = base.char
    eye = np.eye(t_mat.shape[0] // base.degree, dtype=np.int64)
    out = np.zeros_like(t_mat)
    for c in reversed(d.coeffs):
        out = (t_mat @ out + np.kron(eye, base.mult_matrix(c.coords))) % p0
    return out


# ---------------------------------------------------------------------------
# A-module structure oracle for the residue field itself


def module_structure_oracle(psi: DrinfeldModule, p: Poly) -> list[Poly]:
    """Invariant factors of the A-module psi acting on F_p, by brute force."""
    return module_structure_oracle_reduced(reduce_at(psi, p))


def module_structure_oracle_reduced(red: ReducedModule) -> list[Poly]:
    """Builds the matrix of psibar_T as an F_q-linear operator on F_p and takes
    the Smith normal form of T*I - M over A; nonunit factors are returned.
    """
    tower = red.source.tower
    p0 = tower.char
    e = tower.base_degree
    ctx = red.ctx
    n = red.deg_p
    base = tower.base_field

    t_op = _linearized_operator(red, list(red.psibar_T.coeffs), ctx)
    basis = red.residue._basis  # columns (j, t) = y^t T^j
    imgs = (t_op @ basis) % p0
    sol = (red.residue._basis_inv @ imgs) % p0
    # group prime-rows into F_q coefficients: row block i gives the T^i coord
    cols = []
    for jcol in range(n * e):
        col = []
        for i in range(n):
            block = sol[i * e : (i + 1) * e, jcol]
            col.append(FFElem(base, tuple(int(c) for c in block)))
        cols.append(col)
    # psibar_T is F_q-linear, so columns for t > 0 are y^t-multiples; keep t = 0
    mat = [[cols[j * e][i] for j in range(n)] for i in range(n)]
    T = Poly.x(base)
    entries = [
        [
            (T if i == j else Poly.zero(base)) - Poly.constant(mat[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    factors = smith_normal_form(entries)
    return [f for f in factors if f.degree() >= 1]
