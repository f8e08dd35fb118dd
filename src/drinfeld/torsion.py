"""Brute-force a-torsion of a reduced Drinfeld module, with its Frobenius matrix.

The splitting degree s is found first: inside R = F_p[x]/(psibar_a(x)) the
|F_p|-power map is a prime-linear operator, and the kernel of psibar_a is full
over F_{p^s} exactly when that operator's s-th power fixes the class of x.
The candidate degrees s = 1, 2, 3, ... are walked in order (each step is one
matrix-vector product), then the one splitting field F_{p^s} is built in the
tower and the kernel is extracted by linear algebra over the prime field.

Generators are chosen greedily: walk kernel elements in deterministic
coordinate order, keep the first element whose A-order modulo the current
span is a, and repeat r times; Frobenius images are expressed through the
evaluation map (A/aA)^r -> psi[a] by solving one linear system.
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
from .modules import DrinfeldModule, ReducedModule, reduce_at
from .polys import Poly, factorize, poly_gcd
from .quotients import QuotElem, QuotRing, mat_det
from .skew import skew_eval
from .amatrix import smith_normal_form


# ---------------------------------------------------------------------------
# small exact linear algebra over F_q with FFElem entries


class FqRowSpace:
    """Row space over F_q, kept in reduced echelon form."""

    def __init__(self, dim: int, field: _FieldCtx):
        self.dim = dim
        self.field = field
        self.rows: list[list[FFElem]] = []
        self.pivots: list[int] = []

    def _reduce(self, v: list[FFElem]) -> list[FFElem]:
        w = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = w[pc]
            if not c.is_zero():
                w = [wi - c * ri for wi, ri in zip(w, row)]
        return w

    def contains(self, v: list[FFElem]) -> bool:
        return all(c.is_zero() for c in self._reduce(v))

    def add(self, v: list[FFElem]) -> bool:
        w = self._reduce(v)
        pc = next((i for i, c in enumerate(w) if not c.is_zero()), None)
        if pc is None:
            return False
        inv = w[pc].inv()
        w = [c * inv for c in w]
        for i, row in enumerate(self.rows):
            c = row[pc]
            if not c.is_zero():
                self.rows[i] = [ri - c * wi for ri, wi in zip(row, w)]
        at = sum(1 for q in self.pivots if q < pc)
        self.rows.insert(at, w)
        self.pivots.insert(at, pc)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def fq_mat_vec(m: list[list[FFElem]], v: list[FFElem]) -> list[FFElem]:
    return [
        _fq_dot(row, v)
        for row in m
    ]


def _fq_dot(row, v):
    acc = None
    for a, b in zip(row, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def poly_apply_matrix(m_poly: Poly, mat: list[list[FFElem]], v: list[FFElem]) -> list[FFElem]:
    """m(M) @ v by Horner; m has F_q coefficients, M and v live over F_q."""
    field = m_poly.field
    zero = field.zero_elem()
    acc = [zero] * len(v)
    if m_poly.is_zero():
        return acc
    for k in range(m_poly.degree(), -1, -1):
        acc = fq_mat_vec(mat, acc)
        c = m_poly[k]
        if not c.is_zero():
            acc = [ai + c * vi for ai, vi in zip(acc, v)]
    return acc


def fq_solve(columns: list[list[FFElem]], rhs: list[FFElem]) -> list[FFElem] | None:
    """Solve sum_j x_j*columns[j] = rhs over F_q (unique-solution systems)."""
    field = rhs[0].ctx
    n = len(rhs)
    k = len(columns)
    aug = [[columns[j][i] for j in range(k)] + [rhs[i]] for i in range(n)]
    # Gaussian elimination
    pr = 0
    piv_cols = []
    for c in range(k):
        ir = next((i for i in range(pr, n) if not aug[i][c].is_zero()), None)
        if ir is None:
            continue
        aug[pr], aug[ir] = aug[ir], aug[pr]
        inv = aug[pr][c].inv()
        aug[pr] = [x * inv for x in aug[pr]]
        for i in range(n):
            if i != pr and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[pr])]
        piv_cols.append(c)
        pr += 1
    for i in range(pr, n):
        if not aug[i][k].is_zero():
            return None
    out = [field.zero_elem()] * k
    for i, c in enumerate(piv_cols):
        out[c] = aug[i][k]
    return out


# ---------------------------------------------------------------------------
# the quotient ring R = F_p[x]/(f) over the prime field, flattened


class _LinearizedQuotient:
    """Numpy model of F_p[x]/(f) for the monic x-polynomial f = psibar_a."""

    def __init__(self, ctx: _FieldCtx, skew_coeffs: list[FFElem], q: int):
        self.ctx = ctx
        self.p0 = ctx.char
        self.m = ctx.degree
        lead = skew_coeffs[-1]
        inv = lead.inv()
        coeffs = [c * inv for c in skew_coeffs]
        self.D = q ** (len(skew_coeffs) - 1)
        D, m = self.D, self.m
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
    # abstract F_q-model of the torsion module (used by oracle predicates)
    t_action: list[list[FFElem]]
    frob_action: list[list[FFElem]]
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

    basis_vecs = _fq_basis_from_nullspace(null, tower, L, k_q)
    # expanded solve matrix: columns (i, t) = y^t * b_i
    y = tower.embed(tower.gen(tower.base_field), L)
    my = L.mult_matrix(y.coords)
    expanded = np.zeros((L.degree, k_q * e), dtype=np.int64)
    for i, b in enumerate(basis_vecs):
        cur = b
        for t in range(e):
            expanded[:, i * e + t] = cur
            if t < e - 1:
                cur = (my @ cur) % p0
    base = tower.base_field

    def coords_of(vs: np.ndarray) -> list[list[FFElem]]:
        sol = linalg.solve(expanded, vs, p0)
        if sol is None:
            raise DrinfeldError("image leaves the kernel")  # unreachable
        cols = []
        for jcol in range(vs.shape[1]):
            col = []
            for i in range(k_q):
                block = sol[i * e : (i + 1) * e, jcol]
                col.append(FFElem(base, tuple(int(c) for c in block)))
            cols.append(col)
        return cols

    t_op = _linearized_operator(red, list(red.psibar_T.coeffs), L)
    frob_op = L.frob_p_matrix((e * n) % L.degree)
    imgs_t = (t_op @ np.stack(basis_vecs, axis=1)) % p0
    imgs_f = (frob_op @ np.stack(basis_vecs, axis=1)) % p0
    t_cols = coords_of(imgs_t)
    f_cols = coords_of(imgs_f)
    t_action = [[t_cols[j][i] for j in range(k_q)] for i in range(k_q)]
    frob_action = [[f_cols[j][i] for j in range(k_q)] for i in range(k_q)]

    gens_abs = _greedy_module_basis(a, t_action, base, r, q, k_q)

    # evaluation map (A/aA)^r -> kernel and the Frobenius matrix in that basis
    da = a.degree()
    eval_cols: list[list[FFElem]] = []
    for g in gens_abs:
        cur = g
        for _ in range(da):
            eval_cols.append(cur)
            cur = fq_mat_vec(t_action, cur)
    ring = QuotRing(a)
    frob_mat: list[list[QuotElem]] = [[None] * r for _ in range(r)]
    for j, g in enumerate(gens_abs):
        img = fq_mat_vec(frob_action, g)
        sol = fq_solve(eval_cols, img)
        if sol is None:
            raise DrinfeldError("Frobenius image outside the generated span")
        for i in range(r):
            rep = Poly(base, sol[i * da : (i + 1) * da])
            frob_mat[i][j] = ring.reduce(rep)

    det = mat_det(frob_mat, ring)
    if not det.is_unit():
        raise DrinfeldError("torsion Frobenius matrix is not invertible")

    # concrete generators inside L, sanity-killed by psibar_a
    gens_L = []
    for g in gens_abs:
        v = np.zeros(L.degree, dtype=np.int64)
        for i, c in enumerate(g):
            if c.is_zero():
                continue
            cl = tower.embed(c, L)
            v = (v + (L.mult_matrix(cl.coords) @ basis_vecs[i])) % p0
        el = FFElem(L, tuple(int(c) for c in v))
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
        t_action=t_action,
        frob_action=frob_action,
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
    null: np.ndarray, tower, L: _FieldCtx, k_q: int
) -> list[np.ndarray]:
    e = tower.base_degree
    p0 = tower.char
    if e == 1:
        return [null[i].copy() for i in range(k_q)]
    y = tower.embed(tower.gen(tower.base_field), L)
    my = L.mult_matrix(y.coords)
    space = linalg.RowSpace(L.degree, p0)
    out = []
    for row in null:
        if space.contains(row):
            continue
        out.append(row.copy())
        cur = row
        for _ in range(e):
            space.add(cur)
            cur = (my @ cur) % p0
        if len(out) == k_q:
            break
    if len(out) != k_q:
        raise DrinfeldError("failed to extract an F_q-basis of the kernel")
    return out


def _greedy_module_basis(a, t_action, base, r, q, k_q) -> list[list[FFElem]]:
    """r kernel elements whose A-span is free, greedily by element order."""
    fac = factorize(a)
    maximal_divisors = [a.exact_div(g) for g, _ in fac.factors]
    span = FqRowSpace(k_q, base)
    gens: list[list[FFElem]] = []
    da = a.degree()
    order = base.order
    while len(gens) < r:
        found = None
        for code in range(1, order**k_q):
            c = code
            v = []
            for _ in range(k_q):
                v.append(base.dec_elem(c % order))
                c //= order
            if span.contains(v):
                continue
            ok = True
            for d in maximal_divisors:
                if span.contains(poly_apply_matrix(d, t_action, v)):
                    ok = False
                    break
            if ok:
                found = v
                break
        if found is None:
            raise DrinfeldError("no element of maximal order found")  # unreachable
        gens.append(found)
        cur = found
        for _ in range(da):
            span.add(cur)
            cur = fq_mat_vec(t_action, cur)
    if span.rank != k_q:
        raise DrinfeldError("torsion module basis does not span")  # unreachable
    return gens


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
