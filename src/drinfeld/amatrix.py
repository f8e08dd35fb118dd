"""Matrix algorithms over the polynomial rings in play.

Smith normal form runs over any Euclidean polynomial ring built on the
generic Poly class (A itself, F_p[T] over a residue field, or (A/lA)[x] with
quotient-field coefficients), on square matrices and on tall ones (more rows
than columns); pivots are chosen by minimal degree with ties broken by
position, so outputs are deterministic.  Rational canonical forms reduce to
the Smith form of xI - M over (A/lA)[x].
"""

from __future__ import annotations

from .errors import NotIrreducibleError, SingularMatrixError
from .polys import Poly, is_irreducible, poly_gcd
from .quotients import QuotElem, QuotRing


def smith_normal_form(m: list[list[Poly]]) -> list[Poly]:
    """Monic invariant factors d_1 | d_2 | ... | d_c of an n x c matrix with
    n >= c rows (square matrices included) and full column rank.

    Once a single column is left, d_c is the gcd of its entries; on a square
    matrix that column is the one entry d_c."""
    n = len(m)
    c = len(m[0]) if m else 0
    if any(len(row) != c for row in m) or n < c:
        raise SingularMatrixError("matrix must have at least as many rows as columns")
    a = [list(row) for row in m]
    diag: list[Poly] = []
    for k in range(c):
        if k == c - 1 and n > c:
            last = a[k][k]
            for i in range(k + 1, n):
                last = poly_gcd(last, a[i][k])
            if last.is_zero():
                raise SingularMatrixError("matrix has rank below its column count")
            diag.append(last)
            break
        while True:
            piv = None
            best = None
            for i in range(k, n):
                for j in range(k, c):
                    e = a[i][j]
                    if e.is_zero():
                        continue
                    d = e.degree()
                    if best is None or d < best:
                        best, piv = d, (i, j)
            if piv is None:
                raise SingularMatrixError("matrix has rank below its column count")
            pi, pj = piv
            if pi != k:
                a[pi], a[k] = a[k], a[pi]
            if pj != k:
                for row in a:
                    row[pj], row[k] = row[k], row[pj]
            # rows and columns before k are zero off the diagonal, so the
            # row and column operations touch entries from k on; a monic
            # pivot (a unit row scaling) divides with no further inversion
            pivot = a[k][k]
            if not pivot.is_monic():
                inv = pivot.lead().inv()
                a[k][k:] = [x.scale(inv) for x in a[k][k:]]
                pivot = a[k][k]
            dirty = False
            for i in range(k + 1, n):
                if a[i][k].is_zero():
                    continue
                q, a[i][k] = divmod(a[i][k], pivot)
                for t in range(k + 1, c):
                    a[i][t] = a[i][t] - q * a[k][t]
                dirty = dirty or not a[i][k].is_zero()
            for j in range(k + 1, c):
                if a[k][j].is_zero():
                    continue
                q, a[k][j] = divmod(a[k][j], pivot)
                for i in range(k + 1, n):
                    if not a[i][k].is_zero():
                        a[i][j] = a[i][j] - q * a[i][k]
                dirty = dirty or not a[k][j].is_zero()
            if dirty:
                continue
            # pivot must divide the remaining block for the divisibility
            # chain; a unit divides everything
            offender = None
            if pivot.degree():
                offender = next((i for i in range(k + 1, n)
                                 if any(not (a[i][j] % pivot).is_zero() for j in range(k + 1, c))),
                                None)
            if offender is not None:
                a[k] = [a[k][t] + a[offender][t] for t in range(c)]
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


def bareiss_det(m: list[list[Poly]]) -> Poly:
    """Determinant of a square matrix over A, an integral domain, by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968): step k replaces each
    entry below and right of the pivot by a_ij a_kk - a_ik a_kj divided by
    the previous pivot, an exact division, since every entry is then a
    minor of m.  A zero pivot takes the first lower row with a nonzero entry
    in its column, and flips the sign.  Products by a unit pivot, divisions
    by a unit and rows scaled by pivot / prev = 1 are skipped, so the
    Sylvester rows of a monic polynomial cost little.  O(n^3) products in
    A, where the cofactor expansion ``ring_det`` takes O(n!)."""
    a = [list(row) for row in m]
    n = len(a)
    negate, prev = False, None
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return Poly.zero(a[k][k].field)
            a[k], a[swap] = a[swap], a[k]
            negate = not negate
        pivot = a[k][k]
        keep = pivot.is_one() if prev is None else pivot == prev
        for i in range(k + 1, n):
            row, aik = a[i], a[i][k]
            if aik.is_zero() and keep:
                continue  # the row is scaled by pivot / prev = 1
            for j in range(k + 1, n):
                v = row[j] if pivot.is_one() else row[j] * pivot
                if not aik.is_zero():
                    v = v - aik * a[k][j]
                row[j] = v if prev is None or prev.is_one() else v.exact_div(prev)
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if negate else det


def charpoly(m: list[list]) -> Poly:
    """det(xI - M), a monic Poly over the ring of M's entries (QuotElem or FFElem)."""
    n = len(m)
    ring = Poly.constant(m[0][0]).field
    x, zero = Poly.x(ring), Poly.zero(ring)
    return ring_det(
        [[(x if i == j else zero) - Poly.constant(m[i][j]) for j in range(n)] for i in range(n)]
    )


def resultant(p: list[Poly], q: list[Poly], field) -> Poly:
    """Resultant of two polynomials in x with coefficients in A (lists, low
    first): the determinant of their Sylvester matrix, by ``bareiss_det``."""
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
    return bareiss_det(rows)


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
