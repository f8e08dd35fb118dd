"""Brute-force a-torsion of a reduced Drinfeld module, with its Frobenius matrix.

The splitting degree s is found first: inside R = F_p[x]/(psibar_a(x)) the
|F_p|-power map is a prime-linear operator, and the kernel of psibar_a is full
over F_{p^s} exactly when that operator's s-th power fixes the class of x.
The candidate degrees s = 1, 2, 3, ... are walked in order (each step is one
matrix-vector product), then the one splitting field F_{p^s} is built in the
tower and the kernel is extracted by linear algebra over the prime field.

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
from .config import TorsionConfig
from .errors import (
    CoprimalityError,
    DrinfeldError,
    ResourceLimitError,
)
from .fields import FFElem, FieldId, _FieldCtx
from .linalg import orbits
from .modules import DrinfeldModule, ReducedModule, reduce_at
from .polys import Poly, factorize, poly_gcd
from .quotients import QuotElem, QuotRing
from .skew import skew_eval
from .amatrix import ring_det, smith_normal_form


# ---------------------------------------------------------------------------
# the quotient ring R = F_p[x]/(f) over the prime field, flattened

# Largest prime dimension N = q^(r deg a) * [F_p:prime] of R.  The splitting
# search builds dense N x N int64 matrices (N = 4096 is 128 MB each) and
# raises them to a power, so a larger R is refused before any is built.
MAX_QUOTIENT_DIM = 4096


class _LinearizedQuotient:
    """Numpy model of F_p[x]/(f) for the monic x-polynomial f = psibar_a."""

    def __init__(self, ctx: _FieldCtx, skew_coeffs: list[FFElem], q: int):
        self.D = q ** (len(skew_coeffs) - 1)
        self.m = ctx.degree
        D, m = self.D, self.m
        if D * m > MAX_QUOTIENT_DIM:
            raise ResourceLimitError(
                f"torsion quotient F_p[x]/(psibar_a) has prime dimension {D * m}, "
                f"above the cap {MAX_QUOTIENT_DIM}"
            )
        self.ctx = ctx
        self.p0 = ctx.char
        lead = skew_coeffs[-1]
        inv = lead.inv()
        coeffs = [c * inv for c in skew_coeffs]
        # dense monic f, blocks of F_p coordinates; exponents are q^i (and
        # q^0 = 1 never collides with q^i for i > 0 since the x-coefficient
        # lands at exponent 1 and q >= 2)
        f = np.zeros((D + 1, m), dtype=np.int64)
        for i, c in enumerate(coeffs):
            f[q**i if i > 0 else 1] = np.array(c.coords, dtype=np.int64)
        self.f = f
        # x^D mod f = -(low part)
        fred = (-f[:D]) % self.p0
        # FRED_OP: coords(c) -> vec(c * x^D mod f), one mult-matrix per block
        blocks = [self.ctx.mult_matrix(tuple(int(v) for v in fred[j])) for j in range(D)]
        self.fred_op = np.vstack(blocks)  # (D*m) x m
        self.N = D * m

    def const_vec(self, c: FFElem) -> np.ndarray:
        v = np.zeros((self.D, self.m), dtype=np.int64)
        v[0] = c.vec()
        return v.reshape(self.N)

    def x_vec(self) -> np.ndarray:
        v = np.zeros((self.D, self.m), dtype=np.int64)
        v[1] = np.array(self.ctx.one_coords(), dtype=np.int64)
        return v.reshape(self.N)

    def shift_reduce(self, w: np.ndarray) -> np.ndarray:
        """w * x, for w an R-vector reshaped (D, m)."""
        top = w[-1]
        out = np.zeros_like(w)
        out[1:] = w[:-1]
        if top.any():
            out += (self.fred_op @ top).reshape(self.D, self.m)
        return out % self.p0

    def mult_matrix(self, gvec: np.ndarray) -> np.ndarray:
        """Matrix of u -> g*u on R over the prime field."""
        D, m, N = self.D, self.m, self.N
        mx = self.ctx.mult_matrix(self.ctx.x_coords()) if m > 1 else None
        cols = np.zeros((N, N), dtype=np.int64)
        w = gvec.reshape(D, m).copy()
        for k in range(D):
            wk = w
            cols[:, k * m] = wk.reshape(N)
            if m > 1:
                cur = wk
                for t in range(1, m):
                    cur = (cur @ mx.T) % self.p0
                    cols[:, k * m + t] = cur.reshape(N)
            if k < D - 1:
                w = self.shift_reduce(w)
        return cols

    def q_power_vec(self, q: int) -> np.ndarray:
        """vec of x^q mod f."""
        w = np.zeros((self.D, self.m), dtype=np.int64)
        w[1] = np.array(self.ctx.one_coords(), dtype=np.int64)
        for _ in range(q - 1):
            w = self.shift_reduce(w)
        return w.reshape(self.N)

    def q_frobenius_matrix(self, q: int, e: int) -> np.ndarray:
        """Matrix of u -> u^q on R (an F_p0-linear ring endomorphism)."""
        D, m, N = self.D, self.m, self.N
        h = self.q_power_vec(q)
        mh = self.mult_matrix(h)
        frob = self.ctx.frob_p_matrix(e % m if m > 1 else 0)  # q-power on F_p blocks
        cols = np.zeros((N, N), dtype=np.int64)
        for t in range(m):
            v = self.const_vec(FFElem(self.ctx, tuple(int(c) for c in frob[:, t])))
            for k in range(D):
                cols[:, k * m + t] = v
                if k < D - 1:
                    v = (mh @ v) % self.p0
        return cols


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


def torsion_basis(
    psi: DrinfeldModule,
    p: Poly,
    a: Poly,
    config: TorsionConfig | None = None,
) -> TorsionBasis:
    config = config or TorsionConfig()
    red = reduce_at(psi, p)
    return torsion_basis_reduced(red, a, config)


def torsion_basis_reduced(
    red: ReducedModule, a: Poly, config: TorsionConfig | None = None
) -> TorsionBasis:
    config = config or TorsionConfig()
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

    # splitting degree search in R = F_p[x]/(f)
    R = _LinearizedQuotient(ctx, coeffs, q)
    sigma_q = R.q_frobenius_matrix(q, e)
    phi_R = linalg.matpow(sigma_q, n, p0)
    x0 = R.x_vec()
    w = x0.copy()
    s = None
    for step in range(1, config.max_splitting_steps + 1):
        w = (phi_R @ w) % p0
        if np.array_equal(w, x0):
            s = step
            break
    if s is None:
        raise ResourceLimitError(
            f"splitting degree exceeds the configured cap {config.max_splitting_steps}"
        )

    # the splitting field and the kernel inside it
    L = tower.field(ctx.degree * s)
    if L.degree != ctx.degree:
        tower.embedding(ctx, L)
    k_q = r * a.degree()

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
