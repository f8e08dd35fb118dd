"""Matrix algorithms over the polynomial rings in play.

Smith normal form runs over any Euclidean polynomial ring built on the
generic Poly class (A itself, or (A/lA)[x] with quotient-field coefficients);
pivots are chosen by minimal degree with ties broken by position, so outputs
are deterministic.  Rational canonical forms reduce to the Smith form of
xI - M over (A/lA)[x].
"""

from __future__ import annotations

from .errors import NotIrreducibleError, SingularMatrixError
from .polys import Poly, is_irreducible
from .quotients import QuotElem, QuotRing


def smith_normal_form(m: list[list[Poly]]) -> list[Poly]:
    """Monic invariant factors d_1 | d_2 | ... | d_n of a square matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SingularMatrixError("matrix must be square")
    a = [list(row) for row in m]
    diag: list[Poly] = []
    for k in range(n):
        while True:
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    e = a[i][j]
                    if e.is_zero():
                        continue
                    d = e.degree()
                    if best is None or d < best:
                        best, piv = d, (i, j)
            if piv is None:
                raise SingularMatrixError("matrix is singular over the fraction field")
            pi, pj = piv
            if pi != k:
                a[pi], a[k] = a[k], a[pi]
            if pj != k:
                for row in a:
                    row[pj], row[k] = row[k], row[pj]
            pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero():
                    continue
                q = a[i][k] // pivot
                a[i] = [a[i][t] - q * a[k][t] for t in range(n)]
                if not a[i][k].is_zero():
                    dirty = True
            for j in range(k + 1, n):
                if a[k][j].is_zero():
                    continue
                q = a[k][j] // pivot
                for i in range(k, n):
                    a[i][j] = a[i][j] - q * a[i][k]
                if not a[k][j].is_zero():
                    dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block for the divisibility chain
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if not (a[i][j] % pivot).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                a[k] = [a[k][t] + a[offender][t] for t in range(n)]
                continue
            break
        diag.append(a[k][k])
    return [d.monic() for d in diag]


def companion_matrix(f: Poly, ring: QuotRing) -> list[list[QuotElem]]:
    """Companion matrix of a monic polynomial with QuotElem coefficients."""
    d = f.degree()
    out = [[ring.zero_elem() for _ in range(d)] for _ in range(d)]
    for i in range(d - 1):
        out[i + 1][i] = ring.one_elem()
    for i in range(d):
        out[i][d - 1] = -f[i]
    return out


def rational_canonical_form(
    m: list[list[Poly]], ell: Poly
) -> tuple[list[list[QuotElem]], list[Poly]]:
    """RCF of a matrix over the residue field A/lA.

    Input entries are A-polynomials taken mod l.  Returns the canonical
    matrix (companion blocks of the nonunit invariant factors of xI - M,
    ascending) and those invariant factors as polynomials in x over A/lA.
    Two matrices are conjugate over A/lA iff their canonical forms agree.
    """
    if not is_irreducible(ell):
        raise NotIrreducibleError("rcf needs a prime modulus")
    kf = QuotRing(ell.monic())
    n = len(m)
    red = [[kf.reduce(e) for e in row] for row in m]
    xmat: list[list[Poly]] = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [-red[i][j]]
            if i == j:
                coeffs.append(kf.one_elem())
            row.append(Poly(kf, coeffs))
        xmat.append(row)
    factors = [f for f in smith_normal_form(xmat) if f.degree() >= 1]
    blocks = [companion_matrix(f, kf) for f in factors]
    size = sum(len(b) for b in blocks)
    out = [[kf.zero_elem() for _ in range(size)] for _ in range(size)]
    at = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                out[at + i][at + j] = b[i][j]
        at += len(b)
    return out, factors


# ---------------------------------------------------------------------------
# small exact determinants, characteristic polynomials, resultants


def ring_det(m: list[list]) -> object:
    """Cofactor determinant for small matrices over a commutative ring."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = None
    for j in range(n):
        ej = m[0][j]
        if hasattr(ej, "is_zero") and ej.is_zero():
            continue
        minor = [[m[i][t] for t in range(n) if t != j] for i in range(1, n)]
        term = ej * ring_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        z = m[0][0]
        return z - z  # zero of the ring
    return acc


def charpoly(m: list[list]) -> Poly:
    """det(xI - M), a monic Poly over the ring of M's entries (QuotElem or FFElem)."""
    n = len(m)
    ring = Poly.constant(m[0][0]).field
    x, zero = Poly.x(ring), Poly.zero(ring)
    return ring_det(
        [[(x if i == j else zero) - Poly.constant(m[i][j]) for j in range(n)] for i in range(n)]
    )


def resultant(p: list[Poly], q: list[Poly], field) -> Poly:
    """Resultant of two polynomials in x with coefficients in A (lists, low first)."""
    if not q:
        return Poly.zero(field)
    dp, dq = len(p) - 1, len(q) - 1
    n = dp + dq
    zero = Poly.zero(field)
    rows = []
    for i in range(dq):
        row = [zero] * n
        for k in range(dp + 1):
            row[i + k] = p[dp - k]
        rows.append(row)
    for i in range(dp):
        row = [zero] * n
        for k in range(dq + 1):
            row[i + k] = q[dq - k]
        rows.append(row)
    return ring_det(rows)


def poly_in_x_derivative(p: list[Poly], field) -> list[Poly]:
    out = []
    for i in range(1, len(p)):
        c = p[i]
        acc = Poly.zero(field)
        for _ in range(i % field.char):
            acc = acc + c
        out.append(acc)
    while out and out[-1].is_zero():
        out.pop()
    return out


def discriminant(p: list[Poly], field) -> Poly:
    """Discriminant of a monic polynomial in x with A-coefficients."""
    r = len(p) - 1
    res = resultant(p, poly_in_x_derivative(p, field), field)
    if (r * (r - 1) // 2) % 2:
        res = -res
    return res
