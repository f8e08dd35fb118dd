"""Dense exact linear algebra over a prime field F_p, on int64 numpy arrays.

This is the one linear-algebra kernel of the package.  Work over F_q or an
extension field comes here in prime coordinates: an element of F_{p^e} is
its e coordinates (``FFElem.coords``), a vector over it is the concatenation
of those e-blocks, and an F_{p^e}-span is the prime span of the multiples
v, y v, ..., y^(e-1) v of its vectors by the field generator y.

All matrices hold entries in 0..p-1.  Entry growth inside a single matrix
product is at most n*(p-1)^2, far below int64 range for the desk-scale
dimensions used here (F_q is table-sized, so p <= 2^14), so one reduction per
product is exact.
"""

from __future__ import annotations

import numpy as np


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def matpow(a: np.ndarray, k: int, p: int) -> np.ndarray:
    n = a.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = a % p
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def orbits(vectors, mat: np.ndarray, length: int, p0: int) -> list[np.ndarray]:
    """v, M v, ..., M^(length-1) v for each v in turn.

    With M the multiplication by the generator y of F_q and length e, their
    prime span is the F_q-span of the vectors.
    """
    out = []
    for v in vectors:
        for t in range(length):
            out.append(v)
            if t < length - 1:
                v = (mat @ v) % p0
    return out


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref matrix, pivot columns)."""
    a = (m % p).astype(np.int64).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if len(other):
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space mod p, one vector per row (rref-canonical)."""
    rows, cols = m.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((len(free), cols))
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def solve(m: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of m @ x = rhs mod p, or None if inconsistent.

    rhs may be a vector or a matrix of stacked column right-hand sides.
    """
    vec = rhs.ndim == 1
    b = rhs.reshape(-1, 1) if vec else rhs
    aug = np.concatenate([m % p, b % p], axis=1)
    r, pivots = rref(aug, p)
    cols = m.shape[1]
    if any(c >= cols for c in pivots):
        return None
    x = zeros((cols, b.shape[1]))
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x[:, 0] if vec else x


class RowSpace:
    """Incrementally maintained row space mod p (rref form)."""

    def __init__(self, dim: int, p: int):
        self.p = p
        self.dim = dim
        self.basis = zeros((0, dim))
        self.pivots: list[int] = []

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        """v minus its components along the pivots: zero iff v is in the space."""
        p = self.p
        w = v % p
        for i, pc in enumerate(self.pivots):
            if w[pc]:
                w = (w - w[pc] * self.basis[i]) % p
        return w

    def contains(self, v: np.ndarray) -> bool:
        return not self._reduce(v).any()

    def add(self, v: np.ndarray) -> bool:
        """Insert v; returns True if the space grew."""
        p = self.p
        w = self._reduce(v)
        nz = np.nonzero(w)[0]
        if len(nz) == 0:
            return False
        c = int(nz[0])
        w = (w * _inv_mod(w[c], p)) % p
        if len(self.basis):
            col = self.basis[:, c].copy()
            if col.any():
                self.basis = (self.basis - np.outer(col, w)) % p
        at = sum(1 for pc in self.pivots if pc < c)
        self.basis = np.insert(self.basis, at, w, axis=0)
        self.pivots.insert(at, c)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)
