"""Twisted polynomials in tau over a tower field or over A = F_q[T].

The commutation rule is tau*c = c^q*tau, with q the order of the tower's base
field.  For coefficients in A the q-power map raises the whole coefficient
polynomial to the q-th power.  Right division is available over field
coefficients only (leading coefficients of A are not units).

Over a field of degree m over the prime field, the production path keeps a
skew polynomial of tau-degree k - 1 as a k x m array of prime coordinates.
Left multiplication by f = f_0 + f_1 tau + ... is then one matrix product
per coefficient: the term f_j tau^j sends row i to row i + j by the
prime-linear map K_j = M(f_j) Phi^(e j), with M(f_j) multiplication by f_j,
Phi the p-power Frobenius matrix and e the base degree (``left_blocks``,
``left_mul``).  The reduced modules act with psibar_T this way, through its
per-prime blocks K_0..K_r; ``SkewPoly`` products stay as the tests' oracle
(cf. Caruso and Le Borgne, "Fast multiplication for skew polynomials",
ISSAC 2017).
"""

from __future__ import annotations

import numpy as np

from .errors import DrinfeldError, RingMismatchError, TowerMembershipError, ZeroInputError
from .fields import FFElem, _FieldCtx
from .polys import NEG_INF, Poly


class SkewPoly:
    """Immutable twisted polynomial; coeffs low tau-degree first."""

    __slots__ = ("ring", "coeffs", "over_A")

    def __init__(self, ring, coeffs, normalize: bool = True):
        cs = tuple(coeffs)
        if normalize:
            n = len(cs)
            while n and cs[n - 1].is_zero():
                n -= 1
            cs = cs[:n]
        self.ring = ring
        self.coeffs = cs
        self.over_A = not isinstance(ring, _FieldCtx)

    # ring may be a tower field ctx (coefficients FFElem) or an AOverField tag
    # (coefficients Poly over its field)

    @classmethod
    def zero(cls, ring) -> "SkewPoly":
        return cls(ring, (), normalize=False)

    @classmethod
    def one(cls, ring) -> "SkewPoly":
        return cls(ring, (_ring_one(ring),), normalize=False)

    @classmethod
    def tau_power(cls, ring, n: int) -> "SkewPoly":
        zero, one = _ring_zero(ring), _ring_one(ring)
        return cls(ring, (zero,) * n + (one,), normalize=False)

    @classmethod
    def from_array(cls, ctx: _FieldCtx, x: np.ndarray) -> "SkewPoly":
        """The skew polynomial whose tau^i coefficient has prime coordinates
        x[i]."""
        return cls(ctx, ctx.array_elems(x))

    def array(self) -> np.ndarray:
        """The k x m array of prime coordinates, row i for tau^i."""
        if self.over_A:
            raise DrinfeldError("coordinate arrays need field coefficients")
        return self.ring.coeff_array(self.coeffs)

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _ring_zero(self.ring)

    def lead(self):
        if not self.coeffs:
            raise ZeroInputError("leading coefficient of zero")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, SkewPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _check(self, other: "SkewPoly"):
        if self.over_A != other.over_A:
            raise RingMismatchError("cannot mix field and A coefficients")
        if self.over_A:
            if not _same_A(self.ring, other.ring):
                raise RingMismatchError("different coefficient rings")
        elif self.ring.fid != other.ring.fid:
            raise RingMismatchError("different coefficient fields")

    def _twist(self, c, k: int):
        """Apply the q-power map k times to a coefficient.  Over A it is
        additive, so c^(q^k) = sum_i c_i^(q^k) T^(i q^k): the coefficients
        of c spread out to every q^k-th power of T."""
        if k == 0:
            return c
        if self.over_A:
            if c.is_zero():
                return c
            F = c.field
            stride = self.ring.q**k
            out = [F.zero_elem()] * ((len(c.coeffs) - 1) * stride + 1)
            for i, ci in enumerate(c.coeffs):
                out[i * stride] = F.tower.frobenius_power(ci, k)
            return Poly(F, out, normalize=False)
        return self.ring.tower.frobenius_power(c, k)

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SkewPoly(self.ring, tuple(-c for c in self.coeffs), normalize=False)

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SkewPoly.zero(self.ring)
        zero = _ring_zero(self.ring)
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if bj.is_zero():
                    continue
                out[i + j] = out[i + j] + ai * self._twist(bj, i)
        return SkewPoly(self.ring, out, normalize=False)

    def scale_left(self, c) -> "SkewPoly":
        return SkewPoly(self.ring, tuple(c * x for x in self.coeffs))

    def __repr__(self):
        from .textio import skew_to_text

        try:
            return f"Skew({skew_to_text(self)})"
        except Exception:
            return f"Skew({self.coeffs})"


class AOverField:
    """Tag for the coefficient ring A = F_q[T] inside skew polynomials."""

    __slots__ = ("field", "q")

    def __init__(self, field: _FieldCtx):
        self.field = field
        self.q = field.tower.q

    def __eq__(self, other):
        return isinstance(other, AOverField) and self.field.fid == other.field.fid

    def __hash__(self):
        return hash(("AOverField", self.field.fid))


def _same_A(r1, r2) -> bool:
    return isinstance(r1, AOverField) and isinstance(r2, AOverField) and r1 == r2


def _ring_zero(ring):
    if isinstance(ring, AOverField):
        return Poly.zero(ring.field)
    return ring.zero_elem()


def _ring_one(ring):
    if isinstance(ring, AOverField):
        return Poly.one(ring.field)
    return ring.one_elem()


# ---------------------------------------------------------------------------
# spec operations


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f * g


def skew_right_divmod(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """f = quot*g + rem with tau-deg(rem) < tau-deg(g); field coefficients only."""
    if f.over_A or g.over_A:
        raise DrinfeldError("right division needs field coefficients")
    f._check(g)
    if g.is_zero():
        raise ZeroDivisionError("skew division by zero")
    ring = f.ring
    zero = _ring_zero(ring)
    dg = g.degree()
    rem = list(f.coeffs)
    quot = [zero] * max(len(f.coeffs) - dg, 0)
    tower = ring.tower
    while True:
        dr = len(rem) - 1
        while dr >= 0 and rem[dr].is_zero():
            dr -= 1
        if dr < dg:
            break
        m = dr - dg
        c = rem[dr] * tower.frobenius_power(g.lead(), m).inv()
        quot[m] = quot[m] + c
        # rem -= (c tau^m) * g
        for j, bj in enumerate(g.coeffs):
            if bj.is_zero():
                continue
            rem[m + j] = rem[m + j] - c * tower.frobenius_power(bj, m)
    return SkewPoly(ring, quot), SkewPoly(ring, rem[:dg] if dg > 0 else [])


def skew_eval(f: SkewPoly, x: FFElem) -> FFElem:
    """Value of the associated q-linearized polynomial at x (x in an extension)."""
    if f.over_A:
        raise DrinfeldError("evaluation needs field coefficients")
    tower = f.ring.tower
    ctx = x.ctx
    if ctx.char != f.ring.char or ctx.degree % f.ring.degree:
        raise TowerMembershipError("point does not lie over the coefficient field")
    acc = FFElem(ctx, ctx.zero_coords())
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        acc = acc + tower.embed(c, ctx) * tower.frobenius_power(x, i)
    return acc


def skew_commutes(f: SkewPoly, g: SkewPoly) -> bool:
    f._check(g)
    return f * g == g * f


# ---------------------------------------------------------------------------
# skew polynomials over a field as prime-coordinate arrays


def left_blocks(ctx: _FieldCtx, f: np.ndarray) -> list:
    """The blocks K_j = M(f_j) Phi^(e j) of left multiplication by the array
    f, None where f_j = 0."""
    e = ctx.tower.base_degree
    if ctx.degree % e:
        raise TowerMembershipError("field is not an extension of the base field")
    return [
        (ctx.mult_matrix(row) @ ctx.frob_p_matrix(e * j)) % ctx.char if row.any() else None
        for j, row in enumerate(f)
    ]


def left_mul(blocks: list, x: np.ndarray, p: int) -> np.ndarray:
    """The array of f * x, for f given by its ``left_blocks``."""
    k, m = x.shape
    if not k or not blocks:
        return np.zeros((0, m), dtype=np.int64)
    out = np.zeros((k + len(blocks) - 1, m), dtype=np.int64)
    # an entry sums at most len(blocks) * m products below p^2 < 2^28
    # (q <= TABLE_LIMIT), far inside int64 for any field the tower can hold
    for j, kj in enumerate(blocks):
        if kj is not None:
            out[j : j + k] += x @ kj.T
    return out % p
