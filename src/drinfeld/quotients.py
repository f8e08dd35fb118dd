"""Quotients A/aA of the coefficient ring, with canonical representatives.

Elements carry their canonical representative (degree < deg a), so reductions
of exact A-data stay printable and comparable.  When a is irreducible the
quotient is a field and exposes the same small surface as a tower field
context, which lets the generic polynomial machinery (gcd, Smith form) run
over (A/aA)[x] unchanged.
"""

from __future__ import annotations

from .errors import DrinfeldError, RingMismatchError, ZeroInputError
from .polys import Poly, poly_xgcd


class QuotRing:
    """A/aA for monic a of positive degree."""

    def __init__(self, modulus: Poly):
        if modulus.degree() < 1:
            raise DrinfeldError("quotient modulus must have positive degree")
        self.modulus = modulus.monic()
        self.base = modulus.field
        self.char = self.base.char
        self.order = self.base.order ** modulus.degree()
        self.key = ("quot", getattr(self.base, "fid", id(self.base)), self.modulus.coeffs)

    def reduce(self, f: Poly) -> "QuotElem":
        return QuotElem(self, f % self.modulus)

    def zero_elem(self) -> "QuotElem":
        return QuotElem(self, Poly.zero(self.base))

    def one_elem(self) -> "QuotElem":
        return QuotElem(self, Poly.one(self.base))

    def dec_elem(self, code: int) -> "QuotElem":
        q = self.base.order
        coeffs = []
        for _ in range(self.modulus.degree()):
            coeffs.append(self.base.dec_elem(code % q))
            code //= q
        return QuotElem(self, Poly(self.base, coeffs))

    def elements(self):
        for code in range(self.order):
            yield self.dec_elem(code)

    def __eq__(self, other):
        return isinstance(other, QuotRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"A/({self.modulus!r})"


class QuotElem:
    """Canonical representative of an element of A/aA."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: QuotRing, rep: Poly):
        self.ring = ring
        self.rep = rep

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_one(self) -> bool:
        return self.rep.is_one()

    def is_unit(self) -> bool:
        from .polys import poly_gcd

        return poly_gcd(self.rep, self.ring.modulus).degree() == 0 and not self.rep.is_zero()

    def int_code(self) -> int:
        q = self.ring.base.order
        code = 0
        for i in range(self.ring.modulus.degree() - 1, -1, -1):
            code = code * q + self.rep[i].int_code()
        return code

    def _check(self, other: "QuotElem"):
        if self.ring.key != other.ring.key:
            raise RingMismatchError("elements of different quotient rings")

    def __add__(self, other):
        self._check(other)
        return QuotElem(self.ring, (self.rep + other.rep) % self.ring.modulus)

    def __sub__(self, other):
        self._check(other)
        return QuotElem(self.ring, (self.rep - other.rep) % self.ring.modulus)

    def __neg__(self):
        return QuotElem(self.ring, (-self.rep) % self.ring.modulus)

    def __mul__(self, other):
        self._check(other)
        return QuotElem(self.ring, (self.rep * other.rep) % self.ring.modulus)

    def inv(self) -> "QuotElem":
        if self.rep.is_zero():
            raise ZeroInputError("inverse of zero")
        g, u, _ = poly_xgcd(self.rep, self.ring.modulus)
        if g.degree() != 0:
            raise ZeroInputError("element is not a unit in the quotient ring")
        return QuotElem(self.ring, (u.scale(g.lead().inv())) % self.ring.modulus)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.ring.one_elem()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QuotElem)
            and self.ring.key == other.ring.key
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.ring.key, self.rep.coeffs))

    def __repr__(self):
        return f"[{self.rep!r} mod {self.ring.modulus!r}]"


# -- matrices over a quotient ring -------------------------------------------


def mat_mul(a, b, ring: QuotRing):
    n, k, m = len(a), len(b), len(b[0])
    out = [[ring.zero_elem() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = ring.zero_elem()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def mat_is_identity(m) -> bool:
    return all(
        (e.is_one() if i == j else e.is_zero())
        for i, row in enumerate(m)
        for j, e in enumerate(row)
    )


def mat_is_scalar(m) -> bool:
    n = len(m)
    for i in range(n):
        for j in range(n):
            if i != j and not m[i][j].is_zero():
                return False
    return all(m[i][i] == m[0][0] for i in range(n))


def mat_trace(m, ring: QuotRing) -> QuotElem:
    acc = ring.zero_elem()
    for i in range(len(m)):
        acc = acc + m[i][i]
    return acc
