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

The structure oracle gives F_p itself as an A-module through psibar_T, on the
same block coordinates.  The prime matrix M of psibar_T is the sum of the
reduced module's cached blocks M(g_j) Phi^(e j).  det(T - M) comes from
Krylov blocks, one ``rref`` per start: it is the answer itself when the
Krylov space of 1, or else of 1 + T + ... + T^(n-1), is all of F_p (the
cyclic case).  Otherwise the walk goes on over unit starts outside the span,
and the elementary divisors come from the ranks of f(M)^k for the repeated
irreducible factors f.  No Smith form over F_q[T] is taken.
"""

from __future__ import annotations

from bisect import bisect_left
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
from .polys import Poly, factorize, poly_gcd, powint, squarefree_decomposition
from .quotients import QuotElem, QuotRing, mat_is_identity, mat_mul
from .skew import skew_eval
from .amatrix import ring_det


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
    L = tower.make_extension(ctx, s)
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
    """Prime matrix of d(T) on block coordinates, by Horner.  A coefficient
    c adds diag(M(c), ..., M(c)); at e = 1 that is c on the diagonal."""
    p0 = base.char
    dim = t_mat.shape[0]
    eye = np.eye(dim // base.degree, dtype=np.int64)
    diag = np.diag_indices(dim)
    out = np.zeros_like(t_mat)
    for c in reversed(d.coeffs):
        out = t_mat @ out
        if base.degree == 1:
            out[diag] += int(c.coords[0])
        else:
            out += np.kron(eye, base.mult_matrix(c.coords))
        out %= p0
    return out


# ---------------------------------------------------------------------------
# A-module structure oracle for the residue field itself


def module_structure_oracle(psi: DrinfeldModule, p: Poly) -> list[Poly]:
    """Invariant factors of the A-module psi acting on F_p, by linear algebra on F_p."""
    return module_structure_oracle_reduced(reduce_at(psi, p))


def module_structure_oracle_reduced(red: ReducedModule) -> list[Poly]:
    """Invariant factors of F_p as an A-module through psibar, nonunits ascending.

    psibar_T acts F_q-linearly on F_p; its prime matrix, the sum of the
    blocks ``red.psibar_blocks``, is taken on the F_q basis T^j of F_p (the
    residue field's lift coordinates) and handed to ``fq_invariant_factors``.
    """
    t_op = sum(k for k in red.psibar_blocks if k is not None) % red.source.tower.char
    return fq_invariant_factors(red.residue.in_lift_basis(t_op), red.source.tower.base_field)


def fq_invariant_factors(mt: np.ndarray, base: _FieldCtx) -> list[Poly]:
    """Monic nonunit invariant factors d_1 | d_2 | ... of an F_q-linear map.

    ``mt`` is the prime matrix of the map on F_q^n in e-block coordinates
    (e = [F_q:F_p0]), so it commutes with multiplication by the generator y
    of F_q on every block.  The factors are those of the Smith form of
    T*I - M over F_q[T], found without polynomial elimination:

    - chi = det(T - M) is the product of the relative minimal polynomials of
      Krylov blocks (as in Storjohann's Frobenius-form algorithm, ISSAC
      1998).  Each start costs one elimination: see ``_krylov_blocks``.
    - Cyclic case: the starts u_0 (the first block unit) and u_0 + ... +
      u_(n-1) (all block units) are tried in turn, each with its Krylov
      vectors up to M^n; when the first n are independent, chi is read off
      the last one and is the only factor.
    - Otherwise the elimination of the second start also carries the Krylov
      block of u_0 relative to it, and the block units after the blocks name
      the first one outside their span, the next start; the walk goes on
      until the blocks span everything.
    - Then each irreducible f of multiplicity m >= 2 in chi gets its
      partition from the jumps of dim ker f(M)^k, k = 1..m (prime ranks
      divided by e); f^(lambda_j) goes into the j-th factor from the top.
      Factors of multiplicity 1 all go into the top one.
    """
    p0, e = base.char, base.degree
    dim = mt.shape[0]
    n = dim // e
    # y on every block; orbits of length e = 1 never use it
    my = np.kron(np.eye(n, dtype=np.int64), base.mult_matrix(base.x_coords())) if e > 1 else None

    def krylov(v: np.ndarray, length: int) -> list[np.ndarray]:
        return orbits(orbits([v], mt, length + 1, p0), my, e, p0)

    starts = np.zeros((2, dim), dtype=np.int64)
    starts[0, 0] = starts[1, ::e] = 1  # u_0, and the sum of all block units
    first = krylov(starts[0], n)
    (chi,), _, _ = _krylov_blocks([], [first], [], base)
    if chi.degree() == n:
        return [chi]
    k = chi.degree()
    units = list(np.eye(dim, dtype=np.int64)[::e])
    (chi, rel), span, outside = _krylov_blocks(
        [], [krylov(starts[1], n), first[: (k + 1) * e]], units, base
    )
    if chi.degree() == n:
        return [chi]
    chi = chi * rel
    while outside:
        (rel,), span, outside = _krylov_blocks(
            span, [krylov(units[outside[0]], n - len(span) // e)], units, base
        )
        chi = chi * rel
    from_top = [Poly.one(base)]
    for g, m in squarefree_decomposition(chi):
        if m == 1:
            from_top[0] = from_top[0] * g
            continue
        for f, _ in factorize(g).factors:
            fm = _poly_at(f, mt, base)
            power, kernel, at_least = fm, 0, []  # at_least[k]: blocks of size > k
            for _ in range(m):
                rank = len(linalg.rref(power, p0)[1])
                grown = (dim - rank) // e
                at_least.append((grown - kernel) // f.degree())
                kernel, power = grown, (power @ fm) % p0
            if kernel != m * f.degree():
                raise DrinfeldError("generalized kernel of the wrong dimension")  # unreachable
            for i in range(at_least[0]):
                if i == len(from_top):
                    from_top.append(Poly.one(base))
                from_top[i] = from_top[i] * powint(f, sum(1 for c in at_least if c > i))
    return from_top[::-1]


def _krylov_blocks(
    span: list[np.ndarray], chunks: list[list[np.ndarray]], tail: list[np.ndarray], base: _FieldCtx
) -> tuple[list[Poly], list[np.ndarray], list[int]]:
    """One ``rref`` of the columns [span | chunks | tail].

    ``span`` is a prime basis of an M- and y-stable subspace W; each chunk is
    ``krylov(v, L)`` of one start v, the columns y^t M^i v for i = 0..L, long
    enough that M^L v lies in W, the earlier chunks and v..M^(L-1) v.  A
    chunk's pivots are the orbits of its first j vectors, and the column of
    M^j v holds their coefficients: M^j v = sum_i c_i M^i v modulo the
    earlier span.  Returns, per chunk, the relative minimal polynomial
    T^j - sum_i c_i T^i (1 when v is already in the span); the new span
    basis, the pivot columns left of the tail; and the indices of the tail's
    pivot columns, ascending, so that the first is the first tail column
    outside the new span.
    """
    p0, e = base.char, base.degree
    cols = span + [c for chunk in chunks for c in chunk]
    ech, pivots = linalg.rref(np.array(cols + tail).T, p0)
    rels = []
    at = len(span)
    for chunk in chunks:
        row = bisect_left(pivots, at)
        j = (bisect_left(pivots, at + len(chunk)) - row) // e
        low = -ech[row : row + j * e, at + j * e] % p0
        rels.append(Poly(base, base.array_elems(low.reshape(j, e)) + [base.one_elem()]))
        at += len(chunk)
    return (
        rels,
        [cols[c] for c in pivots if c < at],
        [c - at for c in pivots if c >= at],
    )
