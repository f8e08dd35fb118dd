"""Dense exact linear algebra over a prime field F_p.

This is the one linear-algebra kernel of the package.  Work over F_q or an
extension field comes here in prime coordinates: an element of F_{p^e} is
its e coordinates (``FFElem.coords``), a vector over it is the concatenation
of those e-blocks, and an F_{p^e}-span is the prime span of the multiples
v, y v, ..., y^(e-1) v of its vectors by the field generator y.

Matrices enter and leave as int64 numpy arrays with entries in 0..p-1.
Products (``matpow``, ``orbits``) stay numpy matmuls: entry growth inside one
product is at most n*(p-1)^2, far below int64 range for the desk-scale
dimensions used here (F_q is table-sized, so p <= 2^14), so one reduction per
product is exact.

Elimination (``rref``, and through it ``nullspace`` and ``solve``, and
``RowSpace``) runs on packed rows, for every p.  A row is one Python int
holding its entries in w-bit slots, entry j in bits [j w, (j+1) w), so one
big-integer product and sum is a whole row operation (the packed-row idea of
M4RI: Albrecht, Bard and Hart, "Algorithm 898", ACM TOMS 37, 2010, there
with XOR at p = 2, here with slot arithmetic mod p).

- *Lazy reduction.*  A row meeting a pivot row whose slot at the pivot
  column is f (mod p) becomes ``row + (p - f) * pivot_row``: every slot only
  grows, and the pivot slot becomes a multiple of p.  Slots are reduced mod
  p only when a row becomes a pivot row (reduce and scale every slot: for
  8-bit slots one ``bytes.translate`` through a 256-entry table, for wider
  ones one numpy unpack, scale and ``% p``) and when the result is unpacked.
- *Slot bound.*  Pivot rows are reduced, so an update adds at most
  (p-1)^2 to a slot, and a row takes at most one update per pivot, i.e. at
  most min(rows, cols) of them.  So every slot stays below
  (p-1) + min(rows, cols) (p-1)^2, and ``slot_bits`` picks the least w in
  8, 16, 32, 64 above that bound; no slot ever carries into the next.  A
  bound above 2^64 raises ResourceLimitError.  For p <= 2^14 that needs
  min(rows, cols) > 2^36, far beyond any matrix this package builds.
- *Why not numpy per pivot, or Python lists.*  The eliminations here are
  many and small (mostly 2 to 15 rows, the largest about a hundred): numpy's
  fixed cost of a few microseconds per call, paid several times per pivot
  and once per empty column, dominated them.  Lists of Python ints tie on
  the smallest shapes but lose 10x or more on random 105 x 90 and 444 x 40
  matrices, since they pay one interpreter step per entry; a packed row
  pays one per row operation whatever its length.

Packing and unpacking go through ``tobytes`` / ``int.from_bytes`` once per
call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError

# slot width in bits -> the unsigned little-endian dtype of one slot
SLOT_DTYPES = {w: np.dtype(f"<u{w // 8}") for w in (8, 16, 32, 64)}


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


def slot_bits(p: int, updates: int) -> int:
    """Least slot width holding a reduced entry plus ``updates`` row updates
    by reduced pivot rows, each adding at most (p-1)^2."""
    bound = (p - 1) + updates * (p - 1) ** 2
    for w in SLOT_DTYPES:
        if bound < 1 << w:
            return w
    raise ResourceLimitError(
        f"packed rows mod {p} with {updates} updates need slots above 64 bits"
    )


class _Slots:
    """Rows of ``cols`` entries mod p packed into w-bit slots of Python ints."""

    __slots__ = ("p", "cols", "w", "mask", "nbytes", "dtype")

    def __init__(self, p: int, cols: int, updates: int):
        self.p = p
        self.cols = cols
        self.w = slot_bits(p, updates)
        self.mask = (1 << self.w) - 1
        self.nbytes = cols * self.w // 8
        self.dtype = SLOT_DTYPES[self.w]

    def pack(self, m: np.ndarray) -> list[int]:
        """The rows of m (any integers), reduced mod p."""
        b = (m % self.p).astype(self.dtype).tobytes()
        nb = self.nbytes
        return [int.from_bytes(b[i * nb : (i + 1) * nb], "little") for i in range(len(m))]

    def pack_row(self, v: np.ndarray) -> int:
        return int.from_bytes((v % self.p).astype(self.dtype).tobytes(), "little")

    def unpack(self, xs: list[int], rows: int) -> np.ndarray:
        """The rows xs reduced mod p, then zero rows up to ``rows``."""
        nb = self.nbytes
        b = b"".join([x.to_bytes(nb, "little") for x in xs]).ljust(rows * nb, b"\0")
        return (np.frombuffer(b, self.dtype).reshape(rows, self.cols) % self.p).astype(np.int64)

    def reduced(self, x: int, scale: int = 1) -> int:
        """x with every slot reduced mod p and multiplied by scale: 8-bit
        slots by one byte translation, wider ones through numpy."""
        p = self.p
        b = x.to_bytes(self.nbytes, "little")
        if self.w == 8:
            return int.from_bytes(b.translate(_byte_table(p, scale)), "little")
        a = np.frombuffer(b, self.dtype)
        return int.from_bytes((a % p * scale % p).astype(self.dtype).tobytes(), "little")


@lru_cache(maxsize=None)
def _byte_table(p: int, scale: int) -> bytes:
    """The map of one 8-bit slot: v -> (v mod p) * scale mod p.  Slots are
    8 bits wide only for p <= 13, so there are at most 35 tables."""
    return bytes(v % p * scale % p for v in range(256))


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref matrix, pivot columns)."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return zeros((rows, cols)), []
    slots = _Slots(p, cols, min(rows, cols))
    xs = slots.pack(m)
    w, mask = slots.w, slots.mask
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sh = c * w
        for i in range(r, rows):
            f = (xs[i] >> sh & mask) % p
            if f:
                break
        else:
            continue
        # rows r..i-1 are 0 at c; the pivot row moves up to r
        piv = slots.reduced(xs[i], pow(f, -1, p))
        xs[i] = xs[r]
        xs[r] = piv
        for j in (*range(r), *range(i + 1, rows)):
            f = (xs[j] >> sh & mask) % p
            if f:
                xs[j] += (p - f) * piv
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return slots.unpack(xs[:r], rows), pivots


def nullspace(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right null space mod p, one vector per row (rref-canonical)."""
    rows, cols = m.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = rref(m, p)
    taken = set(pivots)
    free = [c for c in range(cols) if c not in taken]
    basis = zeros((len(free), cols))
    basis[range(len(free)), free] = 1
    basis[:, pivots] = (-r[: len(pivots), free]).T % p
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
    x[pivots] = r[: len(pivots), cols:]
    return x[:, 0] if vec else x


class RowSpace:
    """Incrementally maintained row space mod p, kept as packed rref rows.

    ``basis`` is the rref basis as an int64 array, ``pivots`` its pivot
    columns.  A vector is reduced against the rows lazily, as in ``rref``
    (at most rank <= dim updates per slot), and then once mod p.
    """

    def __init__(self, dim: int, p: int):
        self.p = p
        self.dim = dim
        self._slots = _Slots(p, dim, dim)
        self._rows: list[int] = []  # reduced, one per pivot, in pivot order
        self.pivots: list[int] = []

    def _reduce(self, v: np.ndarray) -> int:
        """v minus its components along the pivots, reduced: 0 iff v is in the space."""
        p, w, mask = self.p, self._slots.w, self._slots.mask
        x = self._slots.pack_row(v)
        for c, y in zip(self.pivots, self._rows):
            f = (x >> c * w & mask) % p
            if f:
                x += (p - f) * y
        return self._slots.reduced(x)

    def contains(self, v: np.ndarray) -> bool:
        return not self._reduce(v)

    def add(self, v: np.ndarray) -> bool:
        """Insert v; returns True if the space grew."""
        p, w, mask = self.p, self._slots.w, self._slots.mask
        x = self._reduce(v)
        if not x:
            return False
        c = ((x & -x).bit_length() - 1) // w
        sh = c * w
        x = self._slots.reduced(x, pow(x >> sh & mask, -1, p))
        for j, y in enumerate(self._rows):
            f = y >> sh & mask
            if f:
                self._rows[j] = self._slots.reduced(y + (p - f) * x)
        at = sum(1 for pc in self.pivots if pc < c)
        self._rows.insert(at, x)
        self.pivots.insert(at, c)
        return True

    @property
    def basis(self) -> np.ndarray:
        return self._slots.unpack(self._rows, len(self._rows))

    @property
    def rank(self) -> int:
        return len(self.pivots)
