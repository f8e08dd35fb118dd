"""Exact arithmetic in F_q (q = p^e) and its extensions, organized in a tower.

Every field is realized as F_p[x]/(m(x)) over the prime field, with m the
lexicographically smallest monic irreducible of the right degree; polynomials
are compared by their coefficient tuples read from the highest degree down,
each coefficient as an integer 0..p-1.  Elements are immutable coordinate
vectors over the prime field.

Single elements take one of two regimes behind one element type.  Fields
with at most ``TABLE_LIMIT`` elements get discrete-log tables, and on first
use the Python lists of ``_LogLists``: the element g^k by k, the log of
each coordinate tuple, and the Zech logarithms log(1 + g^k).  There an
element is a shared object ruled by its log: a product adds logs, a sum
adds a Zech log (Huber, "Some comments on Zech's logarithms", IEEE Trans.
Inf. Theory 36, 1990), and inverses, powers, the q-power Frobenius,
embeddings and projections multiply logs, so no operation allocates an
element or touches coordinates.  Only larger fields compute on
coordinates, with the kernel of the coordinate arrays below: a product
scales one row (one matmul by the Toeplitz matrix of the other factor, then
y^(n+j) folded back by the reduction rows y^(n+j) mod m), a power is
square-and-multiply on that product, and an inverse is one ``linalg.solve``
with the element's multiplication matrix.  The log tables come from the
same product: the rows g^k for k < m times the matrix of g^m give the rows
for k < 2m.  Polynomials over a table field need no kernel of their own:
the coefficient loops of ``polys`` run on these elements, so in discrete
logs.

Polynomials over any tower field F_(p^n) also come as k x n coordinate
arrays, for ``polys.powmod``: a product packs each array into one Python
int, does one big-int multiply and folds y^(n+j) back with the reduction
rows (Kronecker substitution, von zur Gathen-Gerhard, Modern Computer
Algebra, §8.4), and ``PolyModulus`` reduces by a Newton inverse.  Above the
table limit, polynomial products, division and gcd run on these arrays
too: a scalar times an array is one matmul by the scalar's Toeplitz matrix,
and the gcd takes pseudo-remainders, so it inverts one field element in
all.  The moduli come from ``lex_irreducible``: candidates without a prime
factor of small degree take the prime test (``polys.rabin_irreducible``:
Rabin's first condition, then Berlekamp's rank of Q - I, on one Frobenius
matrix Q per candidate) over the prime field.  Every field's p-power
matrix comes from the same builder, ``polys.frobenius_matrix`` over the
prime field.

Wherever a deterministic element choice is needed (embedding roots, torsion
generators), elements are ordered by their integer codes sum(c_i * p^i).
An embedding of the degree-a field into the degree-b field sends x to the
smallest root of the degree-a modulus m, found by ``polys.lex_min_root``.
A bigger field with log tables evaluates m at all of its elements at once
by Horner's rule in discrete logs (``_FieldCtx.root_codes``) and takes the
smallest of the a roots.  Above the table limit the roots are the a
conjugates r^(p^i) of any one root r.  There one p-power matrix on
F_p[x]/(m) (``polys.FrobeniusStep``) does the work: applied a times to x it
checks m | x^(p^a) - x, and on the bigger field it gives the traces that
split off one root r inside the degree-a subfield; the answer is the
smallest conjugate of r.  The prime field (modulus x) embeds without a root.
A residue field's T-image is the smallest root of a prime of degree n = [F :
F_q]; a table field finds it in its root table (``orbit_roots``), which one
walk over the Frobenius orbits of F builds for all such primes at once.
Above the table limit at prime q a residue field is a ``_FieldCtx`` of its
own, F_q[x]/(p), that the tower does not register; its embeddings stay with
it (``FieldTower._maps_of``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    ConfigurationError,
    DrinfeldError,
    ResourceLimitError,
    RingMismatchError,
    TowerMembershipError,
    ZeroInputError,
)
from .polys import (
    Poly,
    _irreducible_codes,
    _monic_coords,
    frobenius_matrix,
    int_prime_factors,
    lex_min_root,
    rabin_irreducible,
)

TABLE_LIMIT = 1 << 14
ZERO_LOG = -(1 << 40)  # the discrete log of 0 in Zech tables, negative after any step


@dataclass(frozen=True)
class FieldId:
    """Canonical identity of a tower field: characteristic, degree over the
    prime field, and the defining modulus (coefficients low-first).  The
    tower's maps are keyed by it on every embed, so its hash is kept."""

    char: int
    degree: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.char, self.degree, self.modulus)))

    def __hash__(self):
        return self._hash


# ---------------------------------------------------------------------------
# polynomials over F_(p^n) as k x n coordinate arrays (row i = coefficient of
# x^i), multiplied by Kronecker substitution


def _reduction_rows(f: np.ndarray, p: int) -> np.ndarray:
    """Rows x^(d+j) mod f for j = 0..d-2 (f monic of degree d)."""
    d = len(f) - 1
    rows = np.zeros((max(d - 1, 1), d), dtype=np.int64)
    r = (-f[:d]) % p  # x^d mod f
    rows[0] = r
    for j in range(1, d - 1):
        top = int(r[d - 1])
        r = np.concatenate([[0], r[: d - 1]])
        if top:
            r = (r + top * rows[0]) % p
        rows[j] = r
    return rows


def _trim_rows(a: np.ndarray) -> np.ndarray:
    """a without its zero top rows."""
    nz = np.flatnonzero(a.any(axis=1))
    return a[: int(nz[-1]) + 1] if len(nz) else a[:0]


_SLOTS = tuple(np.dtype(dt) for dt in ("<u2", "<u4", "<u8"))


def _slot_dtype(bound: int) -> np.dtype:
    """Little-endian unsigned slot type holding integers up to ``bound``."""
    for dt in _SLOTS:
        if bound < 1 << (8 * dt.itemsize):
            return dt
    raise ResourceLimitError(f"packed coefficient bound {bound} exceeds 64 bits")


def _kron_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The product of two polynomials over F_p[y], as a (ka+kb-1) x (2n-1)
    array mod p, from one big-int product.

    Each array goes into one Python int with x^i y^j in slot i*(2n-1) + j.
    A product coefficient is a sum of at most min(ka, kb)*n products below
    p^2, so fixed slots of that width never carry into each other.
    """
    (ka, n), kb = a.shape, b.shape[0]
    w = 2 * n - 1
    dt = _slot_dtype(min(ka, kb) * n * (p - 1) ** 2)

    def pack(m: np.ndarray) -> int:
        z = np.zeros((m.shape[0], w), dtype=dt)
        z[:, :n] = m
        return int.from_bytes(z.tobytes(), "little")

    pa = pack(a)
    prod = pa * pa if b is a else pa * pack(b)
    rows = ka + kb - 1
    buf = np.frombuffer(prod.to_bytes(rows * w * dt.itemsize, "little"), dtype=dt)
    return (buf % p).astype(np.int64).reshape(rows, w)


class PolyModulus:
    """Reduction modulo a monic g of degree k >= 1 over a tower field.

    Remainders use h = rev(g)^-1 mod x^m, computed by Newton iteration on
    the first remainder that needs it (von zur Gathen-Gerhard, Modern
    Computer Algebra, §9.1): a dividend of length k + m costs two packed
    products, and the product of two remainders has m <= k - 1.
    """

    def __init__(self, ctx: "_FieldCtx", g: np.ndarray):
        self.ctx = ctx
        self.k = g.shape[0] - 1
        self.g_low = g[:-1]
        self._rev = g[::-1]
        self._h = self._rev[:1]  # rev(g) has constant term 1

    def _series(self, m: int) -> np.ndarray:
        """rev(g)^-1 mod x^m, by h <- h*(2 - rev(g)*h) at doubling precision;
        h is kept to at least x^(k-1), the precision every product needs."""
        ctx = self.ctx
        h = self._h
        if len(h) < m:
            goal = max(m, self.k - 1)
            while len(h) < goal:
                prec = min(2 * len(h), goal)
                t = (-ctx.poly_mul(self._rev[:prec], h)[:prec]) % ctx.char
                t[0, 0] = (t[0, 0] + 2) % ctx.char
                h = ctx.poly_mul(h, t)[:prec]
            self._h = h
        return h[:m]

    def rem(self, a: np.ndarray) -> np.ndarray:
        """a mod g, at most k rows, for any number of rows of a.  A shorter
        a is already reduced and comes back as it is."""
        k, p = self.k, self.ctx.char
        m = a.shape[0] - k
        if m <= 0:
            return a
        quot = self.ctx.poly_mul(a[:k - 1:-1], self._series(m))[:m][::-1]
        return (a[:k] - self.ctx.poly_mul(self.g_low, quot)[:k]) % p

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.rem(self.ctx.poly_mul(a, b))

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e mod g by square-and-multiply; a^0 is 1."""
        out = None
        base = self.rem(a)
        while e:
            if e & 1:
                out = base if out is None else self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        if out is None:
            out = np.zeros((1, self.ctx.degree), dtype=np.int64)
            out[0, 0] = 1
        return out


# ---------------------------------------------------------------------------
# lexicographically-smallest irreducible modulus search


_LEX_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}
_SIEVE_COLUMNS = 1 << 10  # residue coordinates of a candidate, over all small primes


def lex_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree d over F_p, low-first tuple:
    the first candidate with a nonzero constant term, by the code of its
    coefficients c_(d-1)..c_0 read from the top, with no small prime factor
    (``_small_factor_test``) that passes the prime test
    (``polys.rabin_irreducible``) over the prime field."""
    if d == 1:
        return (0, 1)
    key = (p, d)
    if key in _LEX_CACHE:
        return _LEX_CACHE[key]
    prime = _prime_field(p)
    has_small_factor = _small_factor_test(prime, d)
    for code in range(p**d):
        tail = np.array([code // p**i % p for i in range(d)], dtype=np.int64)  # tail[i]: x^i
        if tail[0] == 0 or has_small_factor(tail):
            continue
        g = np.append(tail, 1)
        if rabin_irreducible(prime, g.reshape(-1, 1)):
            result = _LEX_CACHE[key] = tuple(g.tolist())
            return result
    raise DrinfeldError(f"no irreducible of degree {d} over F_{p}")  # unreachable


def _small_factor_test(F, d: int):
    """For the prime field F = F_p: a test whether x^d + sum t_i x^i (i < d),
    given the array t, has a monic prime factor h of degree k <= K, K <= d/2
    the largest degree that keeps the k coordinates of every such h within
    ``_SIEVE_COLUMNS`` in all.  Most reducible polynomials have one,
    and the prime test would reject them only after its d Frobenius steps.

    For each k, the rows x^i mod h (i <= d) for all h at once come from d
    steps of multiplication by x; the residue of a candidate is then its
    row of x^d plus one product of t with the rows below."""
    p = F.char
    blocks, columns = [], 0
    for k in range(1, d // 2 + 1):
        h = _monic_coords(F, _irreducible_codes(F, k), k)[:, :k, 0]
        columns += h.size
        if columns > _SIEVE_COLUMNS:
            break
        rows = np.zeros((d + 1, *h.shape), dtype=np.int64)
        rows[0, :, 0] = 1
        for i in range(d):  # x^(i+1) = x * x^i, with x^k = -sum h_j x^j
            rows[i + 1, :, 1:] = rows[i, :, :-1]
            rows[i + 1] = (rows[i + 1] - rows[i, :, -1:] * h) % p
        blocks.append((rows[d].ravel(), rows[:d].reshape(d, -1), h.shape))

    def has_small_factor(t: np.ndarray) -> bool:
        return any(
            not ((top + t @ low) % p).reshape(shape).any(axis=1).all()
            for top, low, shape in blocks
        )

    return has_small_factor


@lru_cache(maxsize=None)
def _prime_field(p: int) -> "_FieldCtx":
    """The prime field F_p that the modulus search tests candidates over, and
    over which every field's p-power matrix is built."""
    return FieldTower(p).base_field


# ---------------------------------------------------------------------------
# field contexts


class _LogLists(NamedTuple):
    """The log tables of a table field as Python objects, which the
    operations of its elements index."""

    n: int  # |F| - 1, the modulus of logs
    zech: list[int]  # one period of log(1 + g^i), ZERO_LOG at i = log(-1)
    neg: int  # log(-1)
    log_of: dict  # coordinates -> log, the zero coordinates -> ZERO_LOG
    elems: list  # the shared element g^k at index k, for 0 <= k < 2n

    def add(self, a: int, b: int) -> int:
        """An index into ``elems`` of g^a + g^b, or a negative number for 0,
        for logs a, b below n (ZERO_LOG for 0): a + Zech(b - a)."""
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[b - a]  # a negative index wraps to (b - a) mod n
        return a + z if z >= 0 else ZERO_LOG


def _log(x: "FFElem", lists: _LogLists) -> int:
    """The log of a table-field element built from coordinates: looked up
    once in ``log_of`` and kept on the element."""
    x.log = lists.log_of[x.coords]
    return x.log


def orbit_roots(ctx: "_FieldCtx", r: int) -> dict[int, int]:
    """The lex-smallest root in the table field F = ``ctx`` of every monic
    irreducible of degree n = [F : F_q] over the tower base F_q: a map from
    the prime's code sum c_j q^j (j < n, c_j the int code of the coefficient
    of T^j, as in ``polys.enumerate_monic_irreducibles``) to the root's code.

    The roots of the primes of degree n are the Frobenius orbits of n
    elements, in logs the cyclotomic cosets {k q^i mod (|F| - 1)} of size n
    (Lidl and Niederreiter, Finite Fields), plus the root 0 of T when n = 1.
    One n x (|F| - 1) array of the logs k q^i gives every coset at once: its
    least log names it, and the least code among its elements is the root.
    The minimal polynomials prod_i (x - g^(k q^i)) are formed for all cosets
    together, one linear factor per step, in discrete logs with Zech
    logarithms for the sums.  Their coefficients lie in F_q: g^l is there
    exactly when m | l for m = (|F| - 1)/(q - 1), and then it is
    g_q^((l/m) r), with r from ``FieldTower._log_map`` of F_q into F.
    """
    tower = ctx.tower
    q, n, N = tower.q, ctx.degree // tower.base_degree, ctx.order - 1
    exp, _ = ctx._tables
    base_exp, _ = tower.base_field._tables
    ks = np.arange(N, dtype=np.int64)
    orbit = np.empty((n, N), dtype=np.int64)
    orbit[0] = ks
    for i in range(1, n):
        orbit[i] = orbit[i - 1] * q % N
    logs = orbit[:, (orbit.min(axis=0) == ks) & (orbit[1:] != ks).all(axis=0)]
    roots = exp[logs].min(axis=0)
    # coefficients low first, in logs with -1 for 0; times x - g^l = x + g^(l + log(-1))
    zech, neg = ctx._zech_logs(), ctx.neg_one_log()
    coef = np.full((n + 1, logs.shape[1]), -1, dtype=np.int64)
    coef[0] = 0
    for i, l in enumerate(logs):  # rows 0..i hold the product so far
        c = coef[: i + 2]
        prod = np.where(c >= 0, (c + (l + neg)) % N, -1)
        shifted = np.roll(c, 1, axis=0)
        shifted[0] = -1
        z = zech[(prod - shifted) % N]  # g^a + g^b = g^a (1 + g^(b - a))
        total = np.where(z < 0, -1, (shifted + z) % N)
        coef[: i + 2] = np.where(shifted < 0, prod, np.where(prod < 0, shifted, total))
    low = coef[:n]  # coef[n] is the leading 1
    codes = np.where(low < 0, 0, base_exp[low // (N // (q - 1)) * r % (q - 1)])
    table = dict(zip((q ** np.arange(n, dtype=np.int64) @ codes).tolist(), roots.tolist()))
    if n == 1:
        table[0] = 0  # the prime T
    return table


class _FieldCtx:
    """Arithmetic context for one tower field (internal)."""

    def __init__(self, tower: "FieldTower", fid: FieldId, frob: np.ndarray | None = None):
        """``frob``: the p-power matrix (``frob_p_matrix(1)``), when the
        caller has it already."""
        self.tower = tower
        self.fid = fid
        self.char = fid.char
        self.degree = n = fid.degree
        self.order = fid.char**fid.degree
        self.modulus = np.array(fid.modulus, dtype=np.int64)
        self._red = _reduction_rows(self.modulus, self.char)
        self._frob_cache: dict[int, np.ndarray] = {} if frob is None else {1: frob}
        self._maps: dict = {}  # embeddings to and from a field the tower does not register
        self._lock = threading.Lock()
        self._tables = None
        self._zech = None
        self._logs = None
        self._roots = None
        # gather index of the Toeplitz matrices of products (``_toeplitz_of``)
        self._toeplitz = n - 1 + np.arange(2 * n - 1) - np.arange(n)[:, None]
        table = self.order <= TABLE_LIMIT
        if table:
            self._build_tables()
        # the shared 0 and 1; on a table field their logs need no lists
        self._zero = FFElem(self, self.zero_coords(), ZERO_LOG if table else None)
        self._one = FFElem(self, self.one_coords(), 0 if table else None)

    # -- encoding -------------------------------------------------------------

    def enc(self, coords: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coords):
            code = code * self.char + c
        return code

    def dec(self, code: int) -> tuple[int, ...]:
        p = self.char
        out = []
        for _ in range(self.degree):
            out.append(code % p)
            code //= p
        return tuple(out)

    def _build_tables(self):
        """The exp table (codes of g^k for k < 2(|F| - 1)) and the log table
        (-1 at 0) for the generator g with the smallest code.  g^k for k < 2m
        comes from the rows g^k, k < m, times the matrix of g^m: about
        log2 |F| matmuls in all."""
        n, p = self.order, self.char
        one = self.one_coords()
        fac = int_prime_factors(n - 1)
        candidates = map(self.dec, range(2, n))
        gen = next(
            (c for c in candidates if all(self.pow(c, (n - 1) // ell) != one for ell in fac)),
            one,  # F_2, whose generator is 1
        )
        rows = np.array([one], dtype=np.int64)
        step = np.array(gen, dtype=np.int64)  # g^len(rows)
        while len(rows) < n - 1:
            mat = self.mult_matrix(step)
            rows = np.concatenate([rows, rows @ mat.T % p])
            step = mat @ step % p
        codes = rows[: n - 1] @ p ** np.arange(self.degree, dtype=np.int64)
        log = np.full(n, -1, dtype=np.int64)
        log[codes] = np.arange(n - 1)
        self._tables = (np.concatenate([codes, codes]), log)

    def neg_one_log(self) -> int:
        """log(-1) in a table field: 0 in characteristic 2, (|F| - 1)/2
        otherwise, since -1 is the one element of order 2."""
        return 0 if self.char == 2 else (self.order - 1) // 2

    def _zech_logs(self) -> np.ndarray:
        """One period of the Zech logarithms of a table field, built on first
        use: entry i is log(1 + g^i) for the generator g of the log tables,
        or ZERO_LOG at the one i with 1 + g^i = 0, i = log(-1).  Adding 1
        changes only the lowest prime coordinate, the lowest digit of the
        code."""
        if self._zech is None:
            exp, log = self._tables
            codes = exp[: self.order - 1]
            low = codes % self.char
            zech = log[codes - low + (low + 1) % self.char]
            self._zech = np.where(zech < 0, ZERO_LOG, zech)
        return self._zech

    def _zech_steps(self) -> np.ndarray:
        """Four periods of ``_zech_logs`` with entry 0 set to 0, the step
        ``root_codes`` takes from the value 0."""
        steps = np.tile(self._zech_logs(), 4)
        steps[0] = 0
        return steps

    def root_codes(self, codes: list[int]) -> list[int]:
        """The codes of the distinct roots in this table field of the monic
        polynomial whose lower coefficients have the given codes (low
        first), increasing.

        Horner's rule runs in discrete logs at every nonzero x = g^k at once
        (Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory
        36, 1990): acc*x adds k to the log of acc, and acc + c = c(1 + acc/c)
        has the log of c plus the Zech log of log(acc) - log(c).  Logs are
        kept in [0, 2n - 1) for n = |F| - 1, and every negative one stands
        for the value 0.  The root 0 is read off the constant term.
        """
        exp, log = self._tables
        n = self.order - 1
        steps = self._zech_steps()
        ks = np.arange(n)
        acc = np.zeros(n, dtype=np.int64)  # the leading coefficient 1
        for code in reversed(codes):
            acc += ks  # times x: a log below 3n - 2, or negative
            if code:
                c = int(log[code])
                # log(acc) - log(c) + n lies in [1, 4n - 2); the value 0 goes to 0
                np.maximum(acc + (n - c), 0, out=acc)
                acc = steps[acc] + c
            else:
                np.subtract(acc, n, out=acc, where=acc >= n)
        roots = sorted(exp[np.flatnonzero(acc < 0)].tolist())
        return [0] + roots if codes and not codes[0] else roots

    def _log_lists(self) -> _LogLists | None:
        """The field's ``_LogLists``, built on first use; None above the table
        limit.  The list of elements holds two periods, so that a sum of two
        logs indexes it without a reduction mod n."""
        if self._logs is None and self._tables is not None:
            with self._lock:
                if self._logs is None:
                    exp, _ = self._tables
                    n = self.order - 1
                    codes = exp[1:n].tolist()
                    elems = [self._one] + [FFElem(self, self.dec(c), k) for k, c in enumerate(codes, 1)]
                    log_of = {e.coords: k for k, e in enumerate(elems)}
                    log_of[self.zero_coords()] = ZERO_LOG
                    zech = self._zech_logs().tolist()
                    self._logs = _LogLists(n, zech, self.neg_one_log(), log_of, elems + elems)
        return self._logs

    def root_table(self) -> dict[int, int] | None:
        """The field's ``orbit_roots``, built on first use; None above the
        table limit.  The log map of F_q into this field is taken before the
        lock, since it takes the tower's lock and both fields' own."""
        if self._roots is None and self._tables is not None:
            r = self.tower._log_map(self.tower.base_field, self)[2]
            with self._lock:
                if self._roots is None:
                    self._roots = orbit_roots(self, r)
        return self._roots

    # -- raw coordinate operations ----------------------------------------------

    def add(self, a, b):
        p = self.char
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.char
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.char
        return tuple((-x) % p for x in a)

    # Products, inverses and powers on coordinates: the elements above the
    # table limit, the table build and the tests' oracle for the log route.

    def mul(self, a, b):
        """One row scaled: a Toeplitz product and a fold."""
        return tuple(self.scale(np.array([a], dtype=np.int64), b)[0].tolist())

    def inv(self, a):
        """The solution y of a*y = 1, one solve with the matrix of a."""
        if not any(a):
            raise ZeroInputError("inverse of zero")
        one = np.array(self.one_coords(), dtype=np.int64)
        return tuple(linalg.solve(self.mult_matrix(a), one, self.char).tolist())

    def pow(self, a, k: int):
        """a^k by square-and-multiply on ``mul``; a negative k inverts a."""
        if k < 0:
            return self.pow(self.inv(a), -k)
        out, base = self.one_coords(), a
        while k:
            if k & 1:
                out = self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return out

    # -- polynomials over this field as coordinate arrays -----------------------

    def coeff_array(self, elems) -> np.ndarray:
        """The len(elems) x degree array of coordinate rows."""
        return np.array([c.coords for c in elems], dtype=np.int64).reshape(-1, self.degree)

    def array_elems(self, rows: np.ndarray) -> list["FFElem"]:
        return [FFElem(self, tuple(r)) for r in rows.tolist()]

    def poly_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two polynomials given as coordinate arrays: one packed
        product over F_p[y], then y^(n+j) folded back by the reduction rows."""
        if not len(a) or not len(b):
            return np.zeros((0, self.degree), dtype=np.int64)
        return self._fold(_kron_mul(a, b, self.char))

    def _fold(self, c: np.ndarray) -> np.ndarray:
        """Rows of 2n - 1 coordinates mod p, with y^(n+j) folded back by the
        reduction rows into n coordinates."""
        n = self.degree
        if n == 1:
            return c
        return (c[:, :n] + c[:, n:] @ self._red[: n - 1]) % self.char

    def _toeplitz_of(self, c) -> np.ndarray:
        """The n x (2n - 1) matrix whose row j holds the coordinates of
        c*y^j in F_p[y], unreduced, gathered through ``_toeplitz``."""
        n = self.degree
        padded = np.zeros(3 * n - 2, dtype=np.int64)
        padded[n - 1 : 2 * n - 1] = c
        return padded[self._toeplitz]

    def _convolve(self, a: np.ndarray, c) -> np.ndarray:
        """Every row of a times the element with coordinates c, as products
        in F_p[y] of 2n - 1 coordinates mod p: one matmul by the Toeplitz
        matrix of c."""
        return (a @ self._toeplitz_of(c)) % self.char

    def scale(self, a: np.ndarray, c) -> np.ndarray:
        """Every row of the coordinate array a times the element with
        coordinates c."""
        return self._fold(self._convolve(a, c))

    def poly_divmod(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quotient and remainder of coordinate arrays, b nonzero; both come
        back trimmed.  One field inversion makes b monic (none when it is),
        and each quotient row costs one scalar product of it."""
        p = self.char
        a, b = _trim_rows(a), _trim_rows(b)
        k = len(b)
        if len(a) < k:
            return a[:0], a
        lead = tuple(b[-1].tolist())
        if lead == self.one_coords():
            inv = None
        else:
            inv = np.array(self.inv(lead), dtype=np.int64)
            b = self.scale(b, inv)
        r = a.copy()
        q = np.zeros((len(a) - k + 1, self.degree), dtype=np.int64)
        for i in range(len(a) - k, -1, -1):
            c = r[i + k - 1]
            if c.any():
                q[i] = c
                r[i : i + k] = (r[i : i + k] - self.scale(b, c)) % p
        return q if inv is None else self.scale(q, inv), _trim_rows(r[: k - 1])

    def poly_gcd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The monic gcd of two coordinate arrays (no rows for zero).

        Euclid by pseudo-remainders: a <- lc(b) a - lc(a) x^s b, s = deg a -
        deg b, lowers deg a and keeps gcd(a, b) up to a unit, with no
        inversion; the one inversion makes the gcd monic.
        """
        p = self.char
        a, b = _trim_rows(a), _trim_rows(b)
        if len(a) < len(b):
            a, b = b, a
        while len(b):
            r = self._convolve(a, b[-1])
            r[len(a) - len(b) :] -= self._convolve(b, a[-1])
            a = _trim_rows(self._fold(r % p))
            if len(a) < len(b):
                a, b = b, a
        if not len(a):
            return a
        return self.scale(a, np.array(self.inv(tuple(a[-1].tolist())), dtype=np.int64))

    def frob_p_matrix(self, k: int) -> np.ndarray:
        """Matrix of x -> x^(p^k) as a prime-linear map on coordinates, the
        k-th power of the p-power matrix of F_p[x]/(m) (``polys.frobenius_matrix``)."""
        k = k % self.degree
        with self._lock:
            if k not in self._frob_cache:
                if k and 1 not in self._frob_cache:
                    prime = _prime_field(self.char)
                    self._frob_cache[1] = frobenius_matrix(prime, self.modulus[:, None])
                self._frob_cache[k] = (linalg.matpow(self._frob_cache[1], k, self.char) if k
                                       else np.eye(self.degree, dtype=np.int64))
            return self._frob_cache[k]

    def mult_matrix(self, coords) -> np.ndarray:
        """Matrix of y -> c*y over the prime field: column j is c*y^j, the
        Toeplitz matrix of c with y^(n+j) folded back by the reduction rows,
        that is c contracted with the products y^i*y^j reduced mod m."""
        return self._fold(self._toeplitz_of(coords)).T

    def mult_matrices(self, coords: np.ndarray) -> np.ndarray:
        """``mult_matrix`` of every row of an N x degree coordinate array, as
        one N x degree x degree array."""
        n = self.degree
        padded = np.zeros((len(coords), 3 * n - 2), dtype=np.int64)
        padded[:, n - 1 : 2 * n - 1] = coords
        rows = self._fold(padded[:, self._toeplitz].reshape(-1, 2 * n - 1))
        return rows.reshape(-1, n, n).transpose(0, 2, 1)

    def zero_coords(self):
        return (0,) * self.degree

    def one_coords(self):
        return (1,) + (0,) * (self.degree - 1)

    def x_coords(self):
        if self.degree == 1:
            return ((-int(self.modulus[0])) % self.char,)
        return (0, 1) + (0,) * (self.degree - 2)

    # element constructors shared with the generic polynomial layer; 0 and 1
    # are one shared object each
    def zero_elem(self) -> "FFElem":
        return self._zero

    def one_elem(self) -> "FFElem":
        return self._one

    def dec_elem(self, code: int) -> "FFElem":
        return FFElem(self, self.dec(code))

    def elements(self):
        """All elements in deterministic (coordinate-code) order."""
        for code in range(self.order):
            yield FFElem(self, self.dec(code))

    def __repr__(self):
        return f"F({self.char}^{self.degree})" if self.degree > 1 else f"F({self.char})"


class FFElem:
    """Immutable element of a tower field.

    On a table field an element is ruled by its discrete log ``log`` (ZERO_LOG
    for 0): every operation is Python-int arithmetic on logs that returns a
    shared element of the field's ``_LogLists.elems``, so none is allocated.
    An element built from coordinates looks its log up once, on first use.
    Only fields above ``TABLE_LIMIT`` compute on coordinates; there ``log``
    stays None.
    """

    __slots__ = ("ctx", "coords", "log")

    def __init__(self, ctx: _FieldCtx, coords: tuple[int, ...], log: int | None = None):
        self.ctx = ctx
        self.coords = coords
        self.log = log

    @property
    def field(self) -> FieldId:
        return self.ctx.fid

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords == self.ctx._one.coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FFElem)
            and (self.ctx is other.ctx or self.ctx.fid == other.ctx.fid)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.ctx.fid, self.coords))

    def _check(self, other: "FFElem"):
        if self.ctx is not other.ctx and self.ctx.fid != other.ctx.fid:
            raise RingMismatchError(
                f"elements of {self.ctx} and {other.ctx} cannot be combined"
            )

    # Each operation below takes the log route when the field has log lists
    # (built on first use) and the coordinate route otherwise.  Logs lie in
    # [0, n) or are ZERO_LOG, so a sum of two logs is negative exactly when
    # a factor is 0, and below 2n otherwise, an index into the two periods
    # of ``elems``.

    def __add__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.add(self.coords, other.coords))
        la, lb = self.log, other.log
        if la is None:
            la = _log(self, lists)
        if lb is None:
            lb = _log(other, lists)
        k = lists.add(la, lb)
        return lists.elems[k] if k >= 0 else ctx._zero

    def __sub__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.sub(self.coords, other.coords))
        la, lb = self.log, other.log
        if la is None:
            la = _log(self, lists)
        if lb is None:
            lb = _log(other, lists)
        lb += lists.neg  # the log of -other; 0 stays negative
        if lb >= lists.n:
            lb -= lists.n
        k = lists.add(la, lb)
        return lists.elems[k] if k >= 0 else ctx._zero

    def __neg__(self):
        ctx = self.ctx
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.neg(self.coords))
        la = self.log
        if la is None:
            la = _log(self, lists)
        return lists.elems[la + lists.neg] if la >= 0 else self

    def __mul__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.mul(self.coords, other.coords))
        la, lb = self.log, other.log
        if la is None:
            la = _log(self, lists)
        if lb is None:
            lb = _log(other, lists)
        k = la + lb
        return lists.elems[k] if k >= 0 else ctx._zero

    def __truediv__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            self._check(other)
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.mul(self.coords, ctx.inv(other.coords)))
        la, lb = self.log, other.log
        if la is None:
            la = _log(self, lists)
        if lb is None:
            lb = _log(other, lists)
        if lb < 0:
            raise ZeroInputError("inverse of zero")
        k = la - lb + lists.n
        return lists.elems[k] if k >= 0 else ctx._zero

    def __pow__(self, k: int):
        ctx = self.ctx
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.pow(self.coords, k))
        if k == 0:
            return ctx._one
        la = self.log
        if la is None:
            la = _log(self, lists)
        if la < 0:
            if k < 0:
                raise ZeroInputError("inverse of zero")
            return self
        return lists.elems[la * k % lists.n]

    def inv(self) -> "FFElem":
        ctx = self.ctx
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            return FFElem(ctx, ctx.inv(self.coords))
        la = self.log
        if la is None:
            la = _log(self, lists)
        if la < 0:
            raise ZeroInputError("inverse of zero")
        return lists.elems[lists.n - la]

    def frob(self, k: int = 1) -> "FFElem":
        """q-power Frobenius iterated k times (q from the owning tower)."""
        return self.ctx.tower.frobenius_power(self, k)

    def vec(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)

    def int_code(self) -> int:
        return self.ctx.enc(self.coords)

    def __repr__(self):
        return f"FF{self.coords}@{self.ctx}"


@dataclass(frozen=True)
class Embedding:
    """Prime-linear matrix realizing one field inside a bigger one."""

    sub: FieldId
    sup: FieldId
    matrix: np.ndarray  # d_sup x d_sub, column j = image of x^j

    def apply(self, x: FFElem, sup_ctx: _FieldCtx) -> FFElem:
        v = (self.matrix @ x.vec()) % sup_ctx.char
        return FFElem(sup_ctx, tuple(int(c) for c in v))

    @cached_property
    def left_inverse(self) -> np.ndarray:
        """d_sub x d_sup matrix L with L @ matrix = 1 mod p: the inverse of
        d_sub independent rows of ``matrix`` (the pivots of the rref of its
        transpose), zero on the other columns.  The prime field sits in the
        first coordinate."""
        if self.sub.degree == 1:
            return np.eye(1, self.sup.degree, dtype=np.int64)
        p = self.sub.char
        _, rows = linalg.rref(self.matrix.T, p)
        out = linalg.zeros(self.matrix.T.shape)
        out[:, rows] = linalg.solve(self.matrix[rows], np.eye(len(rows), dtype=np.int64), p)
        return out


class FieldTower:
    """Registry of the fields F_{q^n} with embeddings, based at F_q = F_{p^e}.

    Extensions are created on demand and cached by their degree over the
    prime field; registration is serialized, reads are lock-free.  The cap
    ``max_degree`` bounds the degree over the prime field of any field that
    may be created (default 64).  Embeddings and log maps are keyed by the
    fields' ``FieldId``.  A field with its own modulus that the tower does
    not register (a residue field F_q[x]/(p) at prime q) keeps its
    embeddings itself, so they go when it goes.

    Supported domain: q <= ``TABLE_LIMIT``, so that F_q has log tables
    (``z_generator`` and ``dlog_z`` read them), the lex search for moduli stays
    short, and int64 products of prime coordinates cannot overflow.  A larger
    q raises ConfigurationError.
    """

    def __init__(self, q: int, max_degree: int = 64):
        if q > TABLE_LIMIT:
            raise ConfigurationError(f"q = {q} exceeds the supported maximum {TABLE_LIMIT}")
        p, e = _split_prime_power(q)
        self.q = q
        self.char = p
        self.base_degree = e
        self.max_degree = max_degree
        self._fields: dict[int, _FieldCtx] = {}
        self._embeddings: dict[tuple[FieldId, FieldId], Embedding] = {}
        self._log_maps: dict[tuple[FieldId, FieldId], tuple[int, int, int]] = {}
        self._lock = threading.RLock()
        self.base_field = self.field(e)

    # -- registry ---------------------------------------------------------------

    def check_degree(self, degree: int) -> None:
        """Raise ResourceLimitError for a field above the cap."""
        if degree > self.max_degree:
            raise ResourceLimitError(
                f"degree {degree} over the prime field exceeds the cap {self.max_degree}"
            )

    def field(self, degree: int) -> _FieldCtx:
        """Canonical field of the given degree over the prime field."""
        ctx = self._fields.get(degree)
        if ctx is not None:
            return ctx
        self.check_degree(degree)
        with self._lock:
            if degree not in self._fields:
                fid = FieldId(self.char, degree, lex_irreducible(self.char, degree))
                self._fields[degree] = _FieldCtx(self, fid)
        return self._fields[degree]

    def make_extension(self, base: _FieldCtx, n: int) -> _FieldCtx:
        """The field of degree n over ``base``, registered with its embedding."""
        if n < 1:
            raise DrinfeldError("extension degree must be >= 1")
        if n == 1:
            return base
        ext = self.field(base.degree * n)
        self.embedding(base, ext)
        return ext

    def _maps_of(self, sub: _FieldCtx, sup: _FieldCtx) -> dict:
        """The dict that keeps the embedding of sub into sup, keyed by the
        pair of ``FieldId``: the own maps of whichever field the tower does
        not register, else the tower's."""
        for ctx in (sub, sup):
            if self._fields.get(ctx.degree) is not ctx:
                return ctx._maps
        return self._embeddings

    def embedding(self, sub: _FieldCtx, sup: _FieldCtx) -> Embedding:
        key = (sub.fid, sup.fid)
        maps = self._maps_of(sub, sup)
        emb = maps.get(key)
        if emb is not None:
            return emb
        if sup.degree % sub.degree != 0:
            raise TowerMembershipError(
                f"no embedding of degree {sub.degree} into degree {sup.degree}"
            )
        with self._lock:
            emb = maps.get(key)
            if emb is None:
                emb = maps[key] = self._compute_embedding(sub, sup)
            return emb

    def _compute_embedding(self, sub: _FieldCtx, sup: _FieldCtx) -> Embedding:
        if sub.fid == sup.fid:
            return Embedding(sub.fid, sup.fid, np.eye(sub.degree, dtype=np.int64))
        # Compose through the largest registered intermediate field; this keeps
        # every triangle of registered embeddings commutative (the direct map is
        # defined to be the composition whenever a chain already exists).
        for d, mid in sorted(self._fields.items(), reverse=True):
            if d in (sub.degree, sup.degree) or d % sub.degree or sup.degree % d:
                continue
            lo = self._maps_of(sub, mid).get((sub.fid, mid.fid))
            hi = self._maps_of(mid, sup).get((mid.fid, sup.fid))
            if lo is not None and hi is not None:
                return Embedding(sub.fid, sup.fid, (hi.matrix @ lo.matrix) % self.char)
        # column j is root^j; the prime field (modulus x) has the one column 1
        cur = FFElem(sup, sup.one_coords())
        cols = [cur.coords]
        if sub.degree > 1:
            root = self._lex_min_root(sub, sup)
            for _ in range(sub.degree - 1):
                cur = cur * root
                cols.append(cur.coords)
        return Embedding(sub.fid, sup.fid, np.array(cols, dtype=np.int64).T)

    def _lex_min_root(self, sub: _FieldCtx, sup: _FieldCtx) -> FFElem:
        """The lex-smallest root in sup of sub's modulus, a polynomial over
        the prime field; its coefficients c enter sup as (c, 0, ..., 0)."""
        prime = self.field(1)
        f = Poly(prime, [FFElem(prime, (int(c),)) for c in sub.fid.modulus])
        pad = (0,) * (sup.degree - 1)
        return lex_min_root(
            f,
            sup,
            lambda c: FFElem(sup, c.coords + pad),
            "subfield modulus does not split in the superfield",
        )

    # -- element constructors ------------------------------------------------------

    def zero(self, ctx: _FieldCtx | None = None) -> FFElem:
        return (ctx or self.base_field)._zero

    def one(self, ctx: _FieldCtx | None = None) -> FFElem:
        return (ctx or self.base_field)._one

    def from_int(self, n: int, ctx: _FieldCtx | None = None) -> FFElem:
        ctx = ctx or self.base_field
        return FFElem(ctx, ((n % self.char),) + (0,) * (ctx.degree - 1))

    def gen(self, ctx: _FieldCtx | None = None) -> FFElem:
        """The class of x in the defining quotient F_p[x]/(m)."""
        ctx = ctx or self.base_field
        return FFElem(ctx, ctx.x_coords())

    def z_generator(self) -> FFElem:
        """Lex-smallest multiplicative generator of F_q (text I/O uses it): the
        generator of F_q's log tables, exp[1]."""
        ctx = self.base_field
        exp, _ = ctx._tables
        return FFElem(ctx, ctx.dec(int(exp[1])))

    def dlog_z(self, x: FFElem) -> int:
        """Discrete log of x in F_q^x base z, read from F_q's log table."""
        if x.is_zero():
            raise ZeroInputError("dlog of zero")
        ctx = self.base_field
        _, log = ctx._tables
        return int(log[ctx.enc(x.coords)])

    # -- maps ------------------------------------------------------------------------

    def _log_map(self, sub: _FieldCtx, sup: _FieldCtx) -> tuple[int, int, int]:
        """For table fields sub inside sup: (c, m, r) with embed(g_sub) =
        g_sup^c for the fields' log generators, m = n_sup / n_sub and r the
        inverse of c / m mod n_sub.  The image of g_sub has order n_sub, so c
        = m * (a unit mod n_sub): an element g_sup^k lies in sub iff m | k,
        and then it is g_sub^((k / m) r).  Computed once per pair from the
        embedding matrix."""
        key = (sub.fid, sup.fid)
        out = self._log_maps.get(key)
        if out is None:
            sub_lists, sup_lists = sub._log_lists(), sup._log_lists()
            image = self.embedding(sub, sup).apply(sub_lists.elems[1], sup)
            c = _log(image, sup_lists)
            m = sup_lists.n // sub_lists.n
            out = self._log_maps[key] = (c, m, pow(c // m, -1, sub_lists.n))
        return out

    def embed(self, x: FFElem, sup: _FieldCtx) -> FFElem:
        """The image of x in the bigger field sup: g^k goes to g_sup^(c k) on
        table fields (``_log_map``), and through the embedding matrix above
        the table limit."""
        ctx = x.ctx
        if ctx is sup:
            return x
        if ctx.degree == sup.degree and ctx.fid == sup.fid:
            return FFElem(sup, x.coords, x.log)
        lists = sup._logs or sup._log_lists()
        if lists is None:
            return self.embedding(ctx, sup).apply(x, sup)
        la = x.log
        if la is None:
            la = _log(x, ctx._log_lists())
        if la < 0:
            return sup._zero
        return lists.elems[la * self._log_map(ctx, sup)[0] % lists.n]

    def project(self, x: FFElem, sub: _FieldCtx) -> FFElem:
        """Inverse of embed, defined on elements of the embedded subfield;
        any other element raises TowerMembershipError."""
        ctx = x.ctx
        if ctx is sub:
            return x
        if ctx.degree == sub.degree and ctx.fid == sub.fid:
            return FFElem(sub, x.coords, x.log)
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            emb = self.embedding(sub, ctx)
            v = x.vec()
            y = (emb.left_inverse @ v) % self.char
            if not np.array_equal((emb.matrix @ y) % self.char, v):
                raise TowerMembershipError("element does not lie in the requested subfield")
            return FFElem(sub, tuple(int(c) for c in y))
        _, m, r = self._log_map(sub, ctx)
        la = x.log
        if la is None:
            la = _log(x, lists)
        if la < 0:
            return sub._zero
        if la % m:
            raise TowerMembershipError("element does not lie in the requested subfield")
        sub_lists = sub._log_lists()
        return sub_lists.elems[la // m * r % sub_lists.n]

    def frobenius_power(self, x: FFElem, k: int) -> FFElem:
        """x^(q^k); q is the tower base order, k may be 0 or negative."""
        ctx = x.ctx
        if ctx.degree % self.base_degree:
            raise TowerMembershipError("field is not an extension of the base field")
        m = ctx.degree // self.base_degree
        kk = k % m
        if kk == 0:
            return x
        lists = ctx._logs or ctx._log_lists()
        if lists is None:
            mat = ctx.frob_p_matrix(kk * self.base_degree)
            return FFElem(ctx, tuple(int(c) for c in (mat @ x.vec()) % self.char))
        la = x.log
        if la is None:
            la = _log(x, lists)
        if la < 0:
            return x
        n = lists.n
        return lists.elems[la * pow(self.q, kk, n) % n]

    def norm_to_base(self, x: FFElem) -> FFElem:
        ctx = x.ctx
        if ctx.degree % self.base_degree:
            raise TowerMembershipError("element is not in an extension of the base field")
        m = ctx.degree // self.base_degree
        acc, cur = x, x
        for _ in range(m - 1):
            cur = self.frobenius_power(cur, 1)
            acc = acc * cur
        return self.project(acc, self.base_field)

    def trace_to_base(self, x: FFElem) -> FFElem:
        ctx = x.ctx
        if ctx.degree % self.base_degree:
            raise TowerMembershipError("element is not in an extension of the base field")
        m = ctx.degree // self.base_degree
        acc, cur = x, x
        for _ in range(m - 1):
            cur = self.frobenius_power(cur, 1)
            acc = acc + cur
        return self.project(acc, self.base_field)


def _split_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise DrinfeldError("q must be a prime power >= 2")
    n = q
    p = None
    for d in range(2, q + 1):
        if d * d > n and p is None:
            p = n
            break
        if n % d == 0:
            p = d
            break
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise DrinfeldError(f"{q} is not a prime power")
    return p, e


# spec-level free functions


def make_extension(tower: FieldTower, base: _FieldCtx, n: int) -> _FieldCtx:
    return tower.make_extension(base, n)


def frobenius_power(x: FFElem, k: int) -> FFElem:
    return x.ctx.tower.frobenius_power(x, k)


def norm_to_base(x: FFElem) -> FFElem:
    return x.ctx.tower.norm_to_base(x)
