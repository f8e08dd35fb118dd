"""Drinfeld modules over F = F_q(T) with A-integral coefficients, and their
reductions modulo primes of A.

A residue field F_p = A/p of degree n = deg p takes one of four routes:

- *Degree 1.*  F_p is F_q, and T goes to -p_0.
- *Root table.*  Below the log-table limit F_p is realized inside the
  tower's canonical field of degree n [F_q : F_prime], and T goes to the
  lex-smallest root of p there, read from the field's root table
  (``_FieldCtx.root_table``), which one walk over the Frobenius orbits of
  F_(q^n) builds for every prime of degree n at once.
- *Own modulus.*  Above the limit at prime q, F_p is F_q[x]/(p) itself, a
  field of its own (``FieldId(p0, n, p)``) that the tower does not
  register: T goes to x, ``reduce`` is a remainder mod p and ``lift`` reads
  off coordinates.  Its embeddings, into the splitting fields of torsion
  for one, send x to a root of p and stay with it.
- *Root search.*  Above the limit at q = p0^e with e > 1, F_p is again the
  tower field, and ``polys.lex_min_root`` finds the T-image: it tests
  p | x^(q^n) - x over F_q, finds one root in F_p and returns the smallest
  of its conjugates.  An own modulus there would be a polynomial over F_q,
  not over the prime field that every tower field is built on.

The tower-field routes recover canonical representatives (degree < deg p)
through a cached change-of-basis matrix, so reductions round-trip exactly.

Every route certifies that p is prime.  The table's keys are exactly the
minimal polynomials of the orbits of n elements, the monic irreducibles of
degree n, so a p that is no key is reducible.  The own modulus takes the
prime test (``polys.rabin_irreducible``) on the field's q-power matrix,
which then serves as its Frobenius.  The root search's split test makes p
squarefree with its roots in F_p, and an orbit of exactly n roots gives the
root a minimal polynomial of degree n, a factor of p.  So the residue field
is the prime test of a reduction; a reducible p raises NotIrreducibleError
there.  Beyond that the prime test runs only when p divides g_r, or when
F_p would exceed the tower cap.

A reduction caches the matrix Pi of Frobenius on its Anderson motive and its
powers up to Pi^(r-1), all windows of one recurrence (``motive_recurrence``),
for the Weil polynomial, the b's and torsion.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    BadReductionError,
    DrinfeldError,
    NotIrreducibleError,
    ZeroInputError,
)
from .fields import TABLE_LIMIT, FFElem, FieldId, FieldTower, _FieldCtx
from .polys import Poly, frobenius_matrix, is_irreducible, lex_min_root, rabin_irreducible
from .skew import AOverField, SkewPoly, left_blocks, left_mul


class DrinfeldModule:
    """psi_T = T + g_1 tau + ... + g_r tau^r with g_i in A, g_r nonzero."""

    def __init__(self, tower: FieldTower, coefficients: list[Poly]):
        if not coefficients or coefficients[-1].is_zero():
            raise DrinfeldError("the top coefficient g_r must be nonzero")
        self.tower = tower
        self.base = tower.base_field
        self.g = tuple(coefficients)  # g_1 .. g_r
        self.rank = len(self.g)
        A = AOverField(self.base)
        self.psi_T = SkewPoly(A, (Poly.x(self.base),) + self.g)
        # residue fields by prime, alive while some reduction holds them
        self._residues = weakref.WeakValueDictionary()
        self._abhyankar = None  # division.abhyankar_poly, built on first use

    def __repr__(self):
        return f"DrinfeldModule(q={self.tower.q}, r={self.rank})"


def psi_of(psi: DrinfeldModule, a: Poly) -> SkewPoly:
    """The image psi_a in A{tau}; tau-degree r*deg a, constant term a."""
    if a.is_zero():
        raise ZeroInputError("psi_a of a = 0")
    A = psi.psi_T.ring
    acc = SkewPoly.zero(A)
    for k in range(a.degree(), -1, -1):
        acc = acc * psi.psi_T + SkewPoly(A, (Poly.constant(a[k]),))
    if acc.degree() != psi.rank * a.degree():
        raise DrinfeldError("psi_a has wrong tau-degree")  # unreachable
    if acc[0] != a:
        raise DrinfeldError("psi_a has wrong constant term")  # unreachable
    return acc


def good_reduction_at(psi: DrinfeldModule, p: Poly) -> bool:
    """With A-integral coefficients, good reduction at p means p does not
    divide the top coefficient."""
    if not is_irreducible(p):
        raise NotIrreducibleError("reduction needs a prime modulus")
    return not (psi.g[-1] % p).is_zero()


class ResidueField:
    """F_p = A/pA with exact lift/reduce maps, by one of the routes of the
    module docstring.

    Building it proves p prime: a reducible p raises NotIrreducibleError,
    and a p of degree n with n [F_q : F_p] above the tower cap raises
    ResourceLimitError.
    """

    def __init__(self, tower: FieldTower, p: Poly):
        p = p.monic()
        self.tower = tower
        self.prime = p
        n = p.degree()
        self.deg_p = n
        e = tower.base_degree
        if e == 1 and tower.q**n > TABLE_LIMIT:
            # F_p = F_q[x]/(p) itself: T is x, and coordinates are coefficients.
            # The prime test runs on the field's own q-power matrix.
            tower.check_degree(n)
            g = tower.base_field.coeff_array(p.coeffs)
            frob = frobenius_matrix(tower.base_field, g)
            if not rabin_irreducible(tower.base_field, g, frob):
                raise NotIrreducibleError("reduction needs a prime modulus")
            self.ctx = _FieldCtx(tower, FieldId(tower.char, n, tuple(g[:, 0].tolist())), frob)
            self.t_image = tower.gen(self.ctx)
            self._basis_inv = None
            return
        self.ctx = tower.field(n * e)
        if n > 1:
            tower.embedding(tower.base_field, self.ctx)
        self.t_image = self._find_t_image()
        # change of basis: columns are vec(y^t * T^j) for the F_q-basis y^t
        m = self.ctx.degree
        cols = np.zeros((m, m), dtype=np.int64)
        y = tower.embed(tower.gen(tower.base_field), self.ctx)
        tj = FFElem(self.ctx, self.ctx.one_coords())
        idx = 0
        for j in range(n):
            yt = tj
            for t in range(e):
                cols[:, idx] = yt.vec()
                yt = yt * y
                idx += 1
            tj = tj * self.t_image
        self._basis = cols
        inv = linalg.solve(cols, np.eye(m, dtype=np.int64), tower.char)
        if inv is None:
            raise DrinfeldError("residue basis is singular")  # unreachable
        self._basis_inv = inv

    def _find_t_image(self) -> FFElem:
        if self.deg_p == 1:
            return self.tower.embed(-self.prime.coeffs[0], self.ctx)
        table = self.ctx.root_table()
        if table is not None:
            q = self.tower.q
            code = table.get(sum(c.int_code() * q**j for j, c in enumerate(self.prime.coeffs[:-1])))
            if code is None:
                raise NotIrreducibleError("reduction needs a prime modulus")
            return self.ctx.dec_elem(code)
        return lex_min_root(
            self.prime,
            self.ctx,
            lambda c: self.tower.embed(c, self.ctx),
            "reduction needs a prime modulus",
            NotIrreducibleError,
        )

    def reduce(self, f: Poly) -> FFElem:
        """Image of f in F_p: the remainder mod p on the own modulus, else
        f evaluated at the T-image."""
        if self._basis_inv is None:
            coords = [c.coords[0] for c in (f % self.prime).coeffs]
            return FFElem(self.ctx, tuple(coords + [0] * (self.deg_p - len(coords))))
        acc = FFElem(self.ctx, self.ctx.zero_coords())
        for c in reversed(f.coeffs):
            acc = acc * self.t_image + self.tower.embed(c, self.ctx)
        return acc

    def lift(self, x: FFElem) -> Poly:
        """Canonical representative in A of degree < deg p."""
        e = self.tower.base_degree
        y = x.vec() if self._basis_inv is None else (self._basis_inv @ x.vec()) % self.tower.char
        coeffs = []
        for j in range(self.deg_p):
            block = y[j * e : (j + 1) * e]
            coeffs.append(FFElem(self.tower.base_field, tuple(int(c) for c in block)))
        return Poly(self.tower.base_field, coeffs)

    def in_lift_basis(self, mat: np.ndarray) -> np.ndarray:
        """The prime matrix of a map on F_p, moved from the field's coordinates
        to those of ``lift``, the F_q basis y^t T^j."""
        if self._basis_inv is None:
            return mat
        p0 = self.tower.char
        return (self._basis_inv @ ((mat @ self._basis) % p0)) % p0

    @property
    def order(self) -> int:
        return self.tower.q**self.deg_p


class ReducedModule:
    """The reduction psi (x) F_p, a Drinfeld module over the residue field."""

    def __init__(self, source: DrinfeldModule, p: Poly):
        self.source = source
        self.prime = p.monic()
        tower = source.tower
        # p | g_r or a residue field above the cap: only the prime test tells a
        # composite p from a bad or an oversized prime.  Otherwise the
        # residue field below proves p prime.
        if (source.g[-1] % self.prime).is_zero() or (
            self.prime.degree() * tower.base_degree > tower.max_degree
        ):
            if not good_reduction_at(source, p):
                raise BadReductionError(
                    f"bad reduction: p divides the top coefficient g_{source.rank}"
                )
        key = tuple(c.coords for c in self.prime.coeffs)
        self.residue = source._residues.get(key)
        if self.residue is None:
            self.residue = source._residues[key] = ResidueField(tower, self.prime)
        ctx = self.residue.ctx
        coeffs = [self.residue.t_image] + [self.residue.reduce(g) for g in source.g]
        self.psibar_T = SkewPoly(ctx, coeffs)
        if self.psibar_T.degree() != source.rank:
            raise BadReductionError("tau-degree dropped under reduction")  # unreachable
        self.rank = source.rank
        self.deg_p = self.prime.degree()

    @property
    def ctx(self) -> _FieldCtx:
        return self.residue.ctx

    @cached_property
    def psibar_blocks(self) -> list:
        """The blocks K_j = M(g_j) Phi^(e j) of left multiplication by
        psibar_T (``skew.left_blocks``), built on first use."""
        return left_blocks(self.ctx, self.psibar_T.array())

    @cached_property
    def motive(self) -> tuple[np.ndarray, FFElem]:
        """``motive_recurrence``: Pi's powers and N(g_r)^-1, built on first use."""
        return motive_recurrence(self)

    def psibar_array(self, a: Poly) -> np.ndarray:
        """psibar_a as a prime-coordinate array, by Horner on
        acc <- psibar_T acc + a_k (A is commutative)."""
        ctx = self.ctx
        if a.is_zero():
            return np.zeros((0, ctx.degree), dtype=np.int64)
        p0 = ctx.char
        emb = self.source.tower.embedding(self.source.base, ctx).matrix
        consts = (self.source.base.coeff_array(a.coeffs) @ emb.T) % p0
        acc = consts[-1:]
        for c in consts[-2::-1]:
            acc = left_mul(self.psibar_blocks, acc, p0)
            acc[0] = (acc[0] + c) % p0
        return acc

    def psibar_of(self, a: Poly) -> SkewPoly:
        """Image of a under the reduced module, all arithmetic in F_p."""
        return SkewPoly.from_array(self.ctx, self.psibar_array(a))

    def tower_embed_const(self, c: FFElem) -> FFElem:
        return self.source.tower.embed(c, self.residue.ctx)


def motive_recurrence(red: ReducedModule) -> tuple[np.ndarray, FFElem]:
    """The powers Pi, Pi^2, .., Pi^J of the matrix Pi of pi = tau^(deg p) on
    the Anderson motive, J = max(1, r - 1), as a (J, r, r, T-degree, prime
    coordinate) array, and N(g_r)^-1 in F_q.

    M = F_p{tau} is free over F_p[T] on 1, tau, .., tau^(r-1), T acting by
    right multiplication by psibar_T.  Row j of A holds tau * tau^j, and
    tau^r = g_r^-1 (T - t - g_1 tau - .. - g_(r-1) tau^(r-1)).  Left
    multiplication by tau is q-semilinear, so pi has the matrix
    A^(n-1) .. A^(1) A, with A^(k) raising each coefficient to the q^k-th
    power (Anderson, t-motives, Duke Math. J. 53, 1986).  Rows 0..r-2 of A
    shift, so the rows of A^(k-1) .. A are the window R_k .. R_(k+r-1) of
    one sequence that starts with the unit rows and continues as
    g_r^(q^k) R_(k+r) = (T - t^(q^k)) R_k - sum_l g_l^(q^k) R_(k+l).
    The coefficients lie in F_p, so A^(k+n) = A^(k): the window at step j n
    is Pi^j, and J n steps give every power the b's need.  deg R_k <= k // r,
    so the windows fit D = (J n + r - 1) // r + 1 T-degrees.  The product of
    the q-power orbit of 1/g_r is N(g_r)^-1.
    """
    tower, ctx, r, n = red.source.tower, red.ctx, red.rank, red.deg_p
    m, p0 = ctx.degree, ctx.char
    # step k multiplies by h^(q^k) for h = -t/g_r, -g_1/g_r, .., -g_(r-1)/g_r
    # and 1/g_r: the q-power orbits, then one stack of M(h^(q^k))^T per k mod n
    t, *g = red.psibar_T.coeffs
    inv = g[-1].inv()
    orbit = np.empty((n, r + 1, m), dtype=np.int64)
    orbit[0] = [(-(x * inv)).coords for x in (t, *g[:-1])] + [inv.coords]
    frob = ctx.frob_p_matrix(tower.base_degree).T
    for k in range(1, n):
        orbit[k] = (orbit[k - 1] @ frob) % p0
    mats = ctx.mult_matrices(orbit.reshape(-1, m)).swapaxes(1, 2).reshape(n, (r + 1) * m, m)
    # columns j m .. (j + 1) m - 1 hold R_j, row 1 + i (D + 1) + d the T^d
    # coefficient of entry i; rows 0 and 1 + i (D + 1) + D stay 0, so seq[:-1] is T seq[1:]
    J = max(1, r - 1)
    D = (J * n + r - 1) // r + 1
    seq = np.zeros((1 + r * (D + 1), (J * n + r) * m), dtype=np.int64)
    seq[1 :: D + 1, : r * m : m] = np.eye(r, dtype=np.int64)  # R_0 .. R_(r-1)
    norm_inv, mw, mr = orbit[0, r], mats[:, : r * m], mats[:, r * m :]
    for k in range(J * n):
        # an entry sums r + 1 products of two residues, below (r + 1) m p^2
        w, s = seq[1:, k * m : (k + r) * m], seq[:-1, k * m : (k + 1) * m]
        new = w @ mw[k % n] + s @ mr[k % n]
        seq[1:, (k + r) * m : (k + r + 1) * m] = new % p0
        if 0 < k < n:
            norm_inv = (norm_inv @ mr[k]) % p0
    rows = seq[1:].reshape(r, D + 1, -1, m)[:, :D].transpose(2, 0, 1, 3)  # rows[k] is R_k
    powers = np.array([rows[j * n : j * n + r] for j in range(1, J + 1)])
    return powers, tower.project(FFElem(ctx, tuple(norm_inv.tolist())), red.source.base)


def motive_frobenius(red: ReducedModule) -> list[list[Poly]]:
    """Pi with entries in F_p[T] (``ReducedModule.motive``), for the
    splitting degree of torsion and the tests."""
    return [[Poly(red.ctx, red.ctx.array_elems(x)) for x in row] for row in red.motive[0][0]]


def reduce_at(psi: DrinfeldModule, p: Poly) -> ReducedModule:
    """The reduction at p; raises NotIrreducibleError for a non-prime p and
    BadReductionError when p divides g_r.  The residue field's root proves p
    prime; the prime test runs only when p divides g_r or F_p exceeds the
    tower cap (see the module docstring)."""
    return ReducedModule(psi, p)
