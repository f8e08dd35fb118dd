"""Dense univariate polynomials over a finite field, and the ring A = F_q[T].

A polynomial's field may be a tower field (`_FieldCtx`) or any object with the
same small surface (``zero_elem``, ``one_elem``, ``char``, ``order``) whose
elements support ring operators plus ``inv``/``is_zero`` — quotient fields
A/lA reuse the division, gcd and power routines below, which is how rational
canonical forms are computed.  Factorization and root finding need a tower
field.

deg(0) is the distinguished marker float('-inf'), never an integer.

Products, division and gcd take one of two routes.  The coefficient loops
``schoolbook_mul``, ``schoolbook_divmod`` and ``schoolbook_gcd`` serve the
quotient rings A/lA and the tower fields with log tables, whose element
operations are discrete-log lookups.  Above the table limit they run on k x n
coordinate arrays (``_FieldCtx.poly_mul``, ``poly_divmod``, ``poly_gcd``),
which are also the tests' independent oracle for the loops on table fields.
powmod runs on packed arrays over every tower field, and ``schoolbook_powmod``
keeps its coefficient loop for the other rings and the tests.

Factorization is squarefree decomposition, then distinct-degree, then
equal-degree splitting driven by a pseudo-random stream seeded from the input
polynomial bytes, so outputs are reproducible across runs and platforms.
Equal-degree and root splits take no large powers: for a modulus f over a
tower field, u -> u^p is prime-linear on F[x]/(f), so one matrix of the rows
x^(jp) mod f (``FrobeniusStep``) gives the trace of a random t to the prime
field at every factor at once, and a gcd splits off the factors where it
is 0 (p = 2) or a nonzero square (odd p).  The same step applied to x
certifies f | x^(s^m) - x for ``lex_min_root`` and f | x^Q - x for the
split test ``splits_separably``.  Roots in a field with log tables come from
evaluating at every element at once in discrete logs (``table_roots``);
``lex_min_root`` and ``splits_separably`` use that route there and the
p-power step above the table limit.  ``lex_min_root`` serves the tower's
embeddings, the residue fields above the table limit at q = p^e > p and the
tests: a residue field with log tables reads its T-image from the field's
root table (``fields.orbit_roots``), built once for every prime of its
degree, and one above the limit at prime q is F_q[x]/(p) with T-image x.

The monic primes of one degree come from a sieve, not from a test per
candidate: a bitmap over all q^deg monic codes marks the products of smaller
primes with monic cofactors, formed in numpy batches of prime coordinates
(``enumerate_monic_irreducibles``).  The package has one prime test, for
polynomials over tower fields: ``rabin_irreducible``, on the prime matrix Q
of the |F|-power map (``frobenius_matrix``): Rabin's first condition
Q^d x = x, then Berlekamp's count, the nullity of Q - I, and no gcd.  It
serves ``is_irreducible``, the residue fields with their own modulus, the
tower's modulus search (``fields.lex_irreducible``), and the tests as the
sieve's oracle.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator

import numpy as np

from . import linalg
from .errors import (
    DrinfeldError,
    NotMonicError,
    ResourceLimitError,
    RingMismatchError,
    ZeroInputError,
)

NEG_INF = float("-inf")


def same_field(f1, f2) -> bool:
    if f1 is f2:
        return True
    k1, k2 = getattr(f1, "fid", None), getattr(f2, "fid", None)
    if k1 is not None or k2 is not None:
        return k1 == k2
    k1, k2 = getattr(f1, "key", None), getattr(f2, "key", None)
    return k1 is not None and k1 == k2


class Poly:
    """Immutable dense polynomial, coefficients low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Iterable, normalize: bool = True):
        cs = tuple(coeffs)
        if normalize:
            n = len(cs)
            while n and cs[n - 1].is_zero():
                n -= 1
            cs = cs[:n]
        self.field = field
        self.coeffs = cs

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "Poly":
        return cls(field, (), normalize=False)

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (field.one_elem(),), normalize=False)

    @classmethod
    def x(cls, field) -> "Poly":
        return cls(field, (field.zero_elem(), field.one_elem()), normalize=False)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls(c.ctx if hasattr(c, "ctx") else c.ring, (c,))

    @classmethod
    def from_ints(cls, field, ints: Iterable[int]) -> "Poly":
        one = field.one_elem()
        out = []
        for n in ints:
            c = field.zero_elem()
            step = one if n >= 0 else -one
            for _ in range(abs(n) % field.char):
                c = c + step
            out.append(c)
        return cls(field, out)

    # -- basics ------------------------------------------------------------------

    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def lead(self):
        if not self.coeffs:
            raise ZeroInputError("leading coefficient of zero")
        return self.coeffs[-1]

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero_elem()

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _check(self, other: "Poly"):
        if not same_field(self.field, other.field):
            raise RingMismatchError("polynomials over different fields")

    # -- ring operations -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(-c for c in self.coeffs), normalize=False)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):  # scalar
            return Poly(self.field, tuple(c * other for c in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        F = self.field
        if not a or not b:
            return Poly.zero(F)
        if _on_arrays(F):
            return Poly(F, F.array_elems(F.poly_mul(F.coeff_array(a), F.coeff_array(b))))
        return schoolbook_mul(self, other)

    def scale(self, c) -> "Poly":
        return Poly(self.field, tuple(x * c for x in self.coeffs))

    def __pow__(self, k: int) -> "Poly":
        return powint(self, k)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        zero = self.field.zero_elem()
        return Poly(self.field, (zero,) * k + self.coeffs, normalize=False)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Above the table limit the division runs on coordinate arrays;
        over table fields and other rings it is ``schoolbook_divmod``."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(self.field), self
        F = self.field
        if not _on_arrays(F):
            return schoolbook_divmod(self, other)
        q, r = F.poly_divmod(F.coeff_array(self.coeffs), F.coeff_array(other.coeffs))
        return Poly(F, F.array_elems(q), normalize=False), Poly(F, F.array_elems(r), normalize=False)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DrinfeldError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroInputError("monic normalization of zero")
        if self.is_monic():
            return self
        return self.scale(self.lead().inv())

    def derivative(self) -> "Poly":
        if len(self.coeffs) <= 1:
            return Poly.zero(self.field)
        one = self.field.one_elem()
        out = [self.field.zero_elem()] * (len(self.coeffs) - 1)
        kc = self.field.zero_elem()
        for i in range(1, len(self.coeffs)):
            kc = kc + one
            out[i - 1] = self.coeffs[i] * kc
        return Poly(self.field, out)

    def eval(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        return acc if acc is not None else self.field.zero_elem()

    def map_coeffs(self, fn, field=None) -> "Poly":
        return Poly(field or self.field, tuple(fn(c) for c in self.coeffs))

    def lex_key(self) -> tuple:
        """Deterministic sort key: degree, then coefficients from the top down."""
        return (
            len(self.coeffs),
            tuple(c.int_code() for c in reversed(self.coeffs)),
        )

    def __repr__(self):
        from .textio import poly_to_text

        try:
            return f"Poly({poly_to_text(self)})"
        except Exception:
            return f"Poly({self.coeffs})"


# ---------------------------------------------------------------------------
# gcd machinery


def _on_arrays(field) -> bool:
    """Whether polynomials over ``field`` multiply, divide and take gcds on
    coordinate arrays: tower fields above the table limit (no log tables)
    do."""
    return getattr(field, "_tables", ()) is None


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """The product of two polynomials, one coefficient product at a time."""
    if not a.coeffs or not b.coeffs:
        return Poly.zero(a.field)
    zero = a.field.zero_elem()
    out = [zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ai * bj
    return Poly(a.field, out, normalize=False)


def schoolbook_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b, one coefficient product
    at a time."""
    inv_lead = b.lead().inv()
    r = list(a.coeffs)
    db = len(b.coeffs) - 1
    q = [a.field.zero_elem()] * max(len(r) - db, 0)
    for i in range(len(r) - db - 1, -1, -1):
        c = r[i + db]
        if c.is_zero():
            continue
        c = c * inv_lead
        q[i] = c
        for j, bc in enumerate(b.coeffs):
            r[i + j] = r[i + j] - c * bc
    return Poly(a.field, q), Poly(a.field, r[:db])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd (zero for two zeros).  Above the table limit Euclid runs
    on coordinate arrays; over table fields and other rings it is
    ``schoolbook_gcd``."""
    a._check(b)
    F = a.field
    if _on_arrays(F):
        g = F.poly_gcd(F.coeff_array(a.coeffs), F.coeff_array(b.coeffs))
        return Poly(F, F.array_elems(g), normalize=False)
    return schoolbook_gcd(a, b)


def schoolbook_gcd(a: Poly, b: Poly) -> Poly:
    """Euclid's loop with a ``schoolbook_divmod`` per step."""
    while not b.is_zero():
        a, b = b, schoolbook_divmod(a, b)[1]
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g monic (or zero)."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = r0.lead().inv()
    return r0.scale(c), s0.scale(c), t0.scale(c)


def powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """base^e mod modulus.  Over a tower field the loop runs on packed
    coordinate arrays (``fields.PolyModulus`` for the monic associate of the
    modulus); other rings and constant moduli take ``schoolbook_powmod``."""
    from .fields import PolyModulus, _FieldCtx  # deferred: fields imports this module

    F = modulus.field
    if not isinstance(F, _FieldCtx) or modulus.degree() < 1:
        return schoolbook_powmod(base, e, modulus)
    base._check(modulus)
    mod = PolyModulus(F, F.coeff_array(modulus.monic().coeffs))
    return Poly(F, F.array_elems(mod.pow(F.coeff_array(base.coeffs), e)))


def schoolbook_powmod(base: Poly, e: int, modulus: Poly) -> Poly:
    """Square-and-multiply with a Poly product and division per step."""
    out = Poly.one(base.field)
    base = base % modulus
    while e:
        if e & 1:
            out = (out * base) % modulus
        e >>= 1
        if e:
            base = (base * base) % modulus
    return out


# ---------------------------------------------------------------------------
# irreducibility and factorization


def _poly_seed_rng(f: Poly, salt: bytes = b"") -> random.Random:
    h = hashlib.sha256()
    h.update(salt)
    h.update(str(getattr(f.field, "char", 0)).encode())
    h.update(str(getattr(f.field, "order", 0)).encode())
    for c in f.coeffs:
        h.update(str(c.int_code()).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))


def _random_poly(field, deg_bound: int, rng: random.Random) -> Poly:
    order = field.order
    return Poly(
        field,
        [field.dec_elem(rng.randrange(order)) for _ in range(deg_bound)],
    )


def is_irreducible(f: Poly) -> bool:
    """The prime test over the coefficient field, a tower field
    (``rabin_irreducible`` on the monic associate's coordinate array)."""
    if f.is_zero():
        raise ZeroInputError("irreducibility of zero")
    d = f.degree()
    if d < 1:
        return False
    if d == 1:
        return True
    f = f.monic()
    if f.coeffs[0].is_zero():
        return False
    return rabin_irreducible(f.field, f.field.coeff_array(f.coeffs))


def _x_power_rows(F, g: np.ndarray, k: int) -> np.ndarray:
    """The (d, d, e) array of x^(ik) mod g, i < d, for a monic g of degree
    d >= 1 over the tower field F, as (d + 1) x e coordinates (e = [F : F_p]).
    Each row is the one before times the prime matrix of multiplication by
    x^k.  Its blocks j < d - k only shift x^j to x^(j + k); the others,
    x^(j + k) mod g, come from x^d (or x^k for k >= d) by steps of
    multiplication by x."""
    from .fields import PolyModulus  # deferred: fields imports this module

    d, p, e = len(g) - 1, F.char, F.degree
    n = d * e
    cur = np.zeros((d, e), dtype=np.int64)
    if k < d:
        cur[d - 1, 0] = 1
        rows = _x_steps(F, g, cur, k + 1)[1:]
    else:
        x = np.zeros((2, e), dtype=np.int64)
        x[1, 0] = 1
        xk = PolyModulus(F, g).pow(x, k)
        cur[: len(xk)] = xk
        rows = _x_steps(F, g, cur, d)
    low = n - len(rows) * e
    top = _columns(F, rows)
    cur = np.zeros(n, dtype=np.int64)
    cur[0] = 1
    out = [cur]
    for _ in range(d - 1):
        nxt = top @ cur[low:]
        nxt[n - low :] += cur[:low]
        cur = nxt % p
        out.append(cur)
    return np.array(out).reshape(d, d, e)


def _x_steps(F, g: np.ndarray, cur: np.ndarray, n: int) -> list[np.ndarray]:
    """u, x u, .., x^(n-1) u mod the monic g of degree d over F, for u given
    as d x e coordinates: each a shift, with c x^d = -sum (c g_i) x^i."""
    d, p = len(g) - 1, F.char
    fold = F.mult_matrices((-g[:d]) % p)
    out = [cur]
    for _ in range(n - 1):
        nxt = np.zeros_like(cur)
        nxt[1:] = cur[:-1]
        cur = (nxt + fold @ cur[-1]) % p
        out.append(cur)
    return out


def _columns(F, rows) -> np.ndarray:
    """For m elements rows[j] of F[x]/(g), d x e coordinate arrays: the
    d e x m e prime matrix whose column j e + t holds y^t rows[j]."""
    rows = np.asarray(rows)
    m, d, e = rows.shape
    mats = F.mult_matrices(rows.reshape(-1, e)).reshape(m, d, e, e)
    return mats.transpose(1, 2, 0, 3).reshape(d * e, m * e)


def remainder_matrix(F, g: np.ndarray, n: int) -> np.ndarray:
    """The d e x n e prime matrix of u -> u mod g on polynomials of degree
    < n over F, for the monic g of degree d >= 1 given as (d + 1) x e
    coordinates: the ``_columns`` of x^j mod g, j < n."""
    one = np.zeros((len(g) - 1, F.degree), dtype=np.int64)
    one[0, 0] = 1
    return _columns(F, _x_steps(F, g, one, n))


def frobenius_matrix(F, g: np.ndarray) -> np.ndarray:
    """The prime matrix of u -> u^Q on F[x]/(g), Q = |F|, coordinate t of the
    coefficient of x^i at i e + t: y^t x^i goes to y^t x^(iQ), as y^t lies in
    F.  At e = 1, for g irreducible, it is the field's ``frob_p_matrix(1)``."""
    return _columns(F, _x_power_rows(F, g, F.order))


def rabin_irreducible(F, g: np.ndarray, frob: np.ndarray | None = None) -> bool:
    """Irreducibility of a monic g of degree d >= 2 over the tower field F,
    given as (d + 1) x [F : F_p] coordinates, from the prime matrix Q of
    u -> u^|F| on F[x]/(g) (``frobenius_matrix(F, g)``, or the caller's
    ``frob``).  Rabin's first condition g | x^(|F|^d) - x, i.e. Q^d x = x,
    makes g squarefree, and most reducible g fail it (Rabin, SIAM J. Comput.
    9, 1980).  A squarefree g is then irreducible iff its Berlekamp algebra,
    the kernel of Q - I, is F itself: prime nullity [F : F_p] (Berlekamp,
    Bell Syst. Tech. J. 46, 1967)."""
    d, p, e = len(g) - 1, F.char, F.degree
    if frob is None:
        frob = frobenius_matrix(F, g)
    x = np.zeros(d * e, dtype=np.int64)
    x[e] = 1
    u = x
    for _ in range(d):
        u = (frob @ u) % p
    if not np.array_equal(u, x):
        return False
    _, pivots = linalg.rref((frob - np.eye(d * e, dtype=np.int64)) % p, p)
    return len(pivots) == (d - 1) * e


def int_prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of the integer n, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _pth_root(f: Poly) -> Poly:
    """g with g(x)^p = f(x), for f of the form u(x^p) in characteristic p."""
    p = f.field.char
    root_exp = f.field.order // p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(c**root_exp)
        elif not c.is_zero():
            raise DrinfeldError("polynomial is not a p-th power")
    return Poly(f.field, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree g_i with multiplicities m_i, f = lc * prod g_i^m_i."""
    if f.is_zero():
        raise ZeroInputError("squarefree decomposition of zero")
    f = f.monic()
    p = f.field.char
    out: dict[int, Poly] = {}
    n = 1
    while f.degree() >= 1:
        df = f.derivative()
        if df.is_zero():
            c = f
        else:
            c = poly_gcd(f, df)
            w = f.exact_div(c)
            i = 1
            while w.degree() >= 1:
                y = poly_gcd(w, c)
                z = w.exact_div(y)
                if z.degree() >= 1:
                    out[i * n] = out.get(i * n, Poly.one(f.field)) * z
                c = c.exact_div(y)
                w = y
                i += 1
        if c.degree() >= 1:
            f = _pth_root(c)
            n *= p
        else:
            break
    items = []
    for m in sorted(out):
        g = out[m]
        if g.degree() >= 1:
            items.append((g.monic(), m))
    return items


class SquarefreeSplit:
    """f = unit * conductor_part^2 * squarefree_part, conductor maximal."""

    __slots__ = ("unit", "conductor_part", "squarefree_part")

    def __init__(self, unit, conductor_part: Poly, squarefree_part: Poly):
        self.unit = unit
        self.conductor_part = conductor_part
        self.squarefree_part = squarefree_part


def squarefree_split(f: Poly) -> SquarefreeSplit:
    if f.is_zero():
        raise ZeroInputError("squarefree split of zero")
    unit = f.lead()
    c = Poly.one(f.field)
    d0 = Poly.one(f.field)
    for g, m in squarefree_decomposition(f):
        if m % 2:
            d0 = d0 * g
        if m // 2:
            c = c * powint(g, m // 2)
    return SquarefreeSplit(unit, c.monic(), d0.monic())


def splits_separably(f: Poly) -> bool:
    """Whether f has deg f distinct roots in its coefficient field F_Q, a
    tower field: f is a product of distinct linear factors (a nonzero
    constant is the empty product), so a repeated root gives False.

    With log tables the roots come from evaluating f at every element at once
    (``table_roots``).  Above the table limit, f | x^Q - x, checked by one
    ``FrobeniusStep`` for f applied [F_Q : F_p] times to x.
    """
    if f.is_zero():
        raise ZeroInputError("splitting of zero")
    if f.degree() < 1:
        return True
    F = f.field
    if _on_arrays(F):
        return FrobeniusStep(f.monic()).fixes_x(F.degree)
    return len(table_roots(f)) == f.degree()


def powint(f: Poly, k: int) -> Poly:
    out = Poly.one(f.field)
    base = f
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split monic squarefree f, a product of irreducibles of degree d over
    its tower field F.

    Each factor g gives a field F[x]/(g) = L of degree d [F : F_p] over the
    prime field, and one ``FrobeniusStep`` for f serves every split: the
    trace h of a random t to F_p at each factor splits g by ``_trace_split``.
    """
    if f.degree() == d:
        return [f]
    F = f.field
    step = FrobeniusStep(f)
    done, todo = [], [f]
    while todo:
        g = todo.pop()
        if g.degree() == d:
            done.append(g)
            continue
        t = F.coeff_array(_random_poly(F, g.degree(), rng).coeffs)
        c = _trace_split(step, t, g, d * F.degree) if t[1:].any() else g
        todo += [c, g.exact_div(c)] if 0 < c.degree() < g.degree() else [g]
    return sorted(done, key=Poly.lex_key)


class FrobeniusStep:
    """The p-power map u -> u^p on F[x]/(f), as a prime-linear map on m x d
    coordinate arrays (row j holds the coordinates of the coefficient of x^j).

    f is monic of degree m >= 1 over a tower field K of degree e over the
    prime field; F, of degree d, contains K through ``embed`` (F = K
    without one).  u^p = sum_j Frob_p(u_j) x^(jp), and the rows x^(jp) mod f
    lie over K, so they are built once per f (``_x_power_rows``); ``over``
    reuses them in a larger field.  Writing the rows as sum_t X_t y^t over
    the prime field, with y the generator of K, one step is
    sum_t X_t^T W (M_t Phi)^T for the p-power matrix Phi of F and the matrix
    M_t of multiplication by the image of y^t: one product of W with the
    d x ed block row of the (M_t Phi)^T, one with the m x me block row of
    the X_t^T (Cantor and Zassenhaus, Math. Comp. 36, 1981; von zur Gathen
    and Shoup, Comput. Complexity 2, 1992).  The block row is
    Phi^T [M_0^T | .. | M_(e-1)^T], one ``mult_matrices`` call on the e
    images and one product.
    """

    def __init__(self, f: Poly, field=None, embed=None, rows=None):
        K = f.field
        F = field or K
        self.f, self.field, self.m = f, F, f.degree()
        self._rows = rows if rows is not None else _x_power_rows(K, K.coeff_array(f.coeffs), K.char)
        p, e = F.char, K.degree
        self.x = np.zeros((self.m, e), dtype=np.int64)  # x mod f
        if self.m > 1:
            self.x[1, 0] = 1
        else:
            self.x[0] = (-f.coeffs[0]).coords
        ys = np.eye(e, dtype=np.int64)  # y^t, the prime basis of K
        if embed:
            ys = np.array([embed(y).coords for y in K.array_elems(ys)], dtype=np.int64)
        d = F.degree
        mats = F.mult_matrices(ys).transpose(2, 0, 1).reshape(d, e * d)  # the M_t^T side by side
        self._b = (F.frob_p_matrix(1).T @ mats) % p
        self._x = self._rows.transpose(1, 0, 2).reshape(self.m, self.m * e)

    def over(self, field, embed) -> "FrobeniusStep":
        """The same step on F[x]/(f) for a field F that contains K through
        ``embed``."""
        return FrobeniusStep(self.f, field, embed, self._rows)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        p = self.field.char
        v = (w @ self._b) % p
        return (self._x @ v.reshape(-1, self.field.degree)) % p

    def trace(self, w: np.ndarray, n: int) -> np.ndarray:
        """w + w^p + ... + w^(p^(n-1)) for an m x d array w."""
        acc = cur = w
        for _ in range(n - 1):
            cur = self(cur)
            acc = acc + cur
        return acc % self.field.char

    def fixes_x(self, n: int) -> bool:
        """Whether x^(p^n) = x mod f, that is f | x^(p^n) - x; here F = K."""
        cur = self.x
        for _ in range(n):
            cur = self(cur)
        return np.array_equal(cur, self.x)


def _trace_split(step: FrobeniusStep, t: np.ndarray, g: Poly, deg_L: int) -> Poly:
    """gcd(h, g) for p = 2, else gcd(h^((p-1)/2) - 1, g), for the monic
    factor g of the step's f over its field F and the trace
    h = t + t^p + ... + t^(p^(deg_L - 1)) mod f of a coordinate array t of
    fewer than deg g rows.  When every root r of g lies in a field L of
    degree deg_L over the prime field (and t(r) lies in L), h(r) is
    Tr_{L/F_p}(t(r)), an element of the prime field."""
    from .fields import PolyModulus  # deferred: fields imports this module

    F = step.field
    p = F.char
    w = np.zeros((step.m, F.degree), dtype=np.int64)
    w[: len(t)] = t
    h = step.trace(w, deg_L)
    if p > 2:
        h = PolyModulus(F, F.coeff_array(g.coeffs)).pow(h, (p - 1) // 2)
        h[0, 0] = (h[0, 0] - 1) % p
    return poly_gcd(Poly(F, F.array_elems(h)), g)


class FactorizationA:
    """unit times a sorted list of (monic irreducible, multiplicity)."""

    __slots__ = ("field", "unit", "factors")

    def __init__(self, field, unit, factors: list[tuple[Poly, int]]):
        self.field = field
        self.unit = unit
        self.factors = factors

    def value(self) -> Poly:
        out = Poly.one(self.field)
        for g, m in self.factors:
            out = out * powint(g, m)
        return out.scale(self.unit)


def factorize(f: Poly) -> FactorizationA:
    """Complete factorization into monic irreducibles, deterministic order."""
    if f.is_zero():
        raise ZeroInputError("factorization of zero")
    factors = [(irr, mult) for g, mult in squarefree_decomposition(f)
               for irr in squarefree_factors(g)]
    # the squarefree parts are pairwise coprime, so no irreducible repeats
    return FactorizationA(f.field, f.lead(), sorted(factors, key=lambda t: t[0].lex_key()))


def squarefree_factors(g: Poly) -> list[Poly]:
    """The monic irreducible factors of a monic squarefree g over a tower
    field: distinct-degree splitting by x^(Q^k) mod g, Q = |F|, then
    equal-degree splitting of each part, driven by a stream seeded from g."""
    rng, x = _poly_seed_rng(g), Poly.x(g.field)
    h, k, out = x, 0, []
    while 2 * (k + 1) <= g.degree():
        k += 1
        h = powmod(h, g.field.order, g)
        gd = poly_gcd(h - x, g)
        if gd.degree() > 0:
            out += _equal_degree_split(gd, k, rng)
            g = g.exact_div(gd)
            h = h % g
    return out + [g.monic()] if g.degree() > 0 else out


def roots_in_field(f: Poly) -> list:
    """All distinct roots of f in its own coefficient field, sorted.

    A full equal-degree split over that field; the package finds roots by
    ``lex_min_root``, and this is the independent route the tests compare it to.
    """
    if f.is_zero():
        raise ZeroInputError("roots of zero")
    field = f.field
    q = field.order
    x = Poly.x(field)
    h = powmod(x, q, f) - x
    g = poly_gcd(h, f)
    roots = []
    if g.degree() >= 1:
        rng = _poly_seed_rng(f, salt=b"roots")
        for lin in _equal_degree_split(g.monic(), 1, rng):
            roots.append(-lin.coeffs[0])
    return sorted(roots, key=lambda r: r.int_code())


def table_roots(f: Poly) -> list:
    """All distinct roots of f in its own coefficient field, a tower field
    with log tables, sorted by code: f is evaluated at every element at once,
    by Horner's rule in discrete logs with Zech logarithms for the sums
    (``_FieldCtx.root_codes``)."""
    if f.is_zero():
        raise ZeroInputError("roots of zero")
    F = f.field
    codes = F.root_codes([c.int_code() for c in f.monic().coeffs[:-1]])
    return [F.dec_elem(c) for c in codes]


def lex_min_root(f: Poly, field, embed, error: str, error_class=DrinfeldError):
    """The root of f in the tower field ``field`` with the smallest integer code.

    f lies over its own coefficient field K = F_s, a tower field, and ``embed``
    maps K into ``field`` (F).  f must be irreducible of a degree m with
    F_(s^m) inside F; otherwise ``error_class(error)`` is raised.  Its roots
    are then the m conjugates r, r^s, ..., r^(s^(m-1)) of any one root r.
    A linear f has the one root -f_0.

    A field with log tables evaluates f at all of its elements at once
    (``table_roots``) and needs exactly m distinct roots; the answer is the
    smallest.  A larger field builds one ``FrobeniusStep`` for f over K.
    Applied m [K : F_p] times to x it checks f | x^(s^m) - x, which makes f
    squarefree with every root in the subfield L = F_(s^m); the same step
    over F then splits off one root over L by traces (``_one_root``), and
    the answer is the smallest of its conjugates.  Either way an orbit of
    exactly m conjugates makes the minimal polynomial of the root, a factor
    of f, of degree m, so f is irreducible.

    It serves the tower's embeddings and the residue fields above the table
    limit, and it is the tests' oracle for the root table that gives the
    other residue fields their T-image (``fields.orbit_roots``).
    """
    K = f.field
    m = f.degree()
    if m < 1 or field.degree % (m * K.degree):
        raise error_class(error)
    f = f.monic()
    if m == 1:
        return embed(-f.coeffs[0])
    if _on_arrays(field):
        step = FrobeniusStep(f)
        if not step.fixes_x(m * K.degree):
            raise error_class(error)
        rng = _poly_seed_rng(f, b"root")
        root = _one_root(step.over(field, embed), f.map_coeffs(embed, field), m * K.degree, rng)
    else:
        roots = table_roots(f.map_coeffs(embed, field))
        if len(roots) != m:
            raise error_class(error)
        root = roots[0]
    frob = field.frob_p_matrix(K.degree)  # y -> y^s on F
    v = root.vec()
    codes = {root.int_code()}
    for _ in range(m - 1):
        v = (frob @ v) % field.char
        codes.add(field.enc(tuple(int(c) for c in v)))
    if len(codes) != m:
        raise error_class(error)
    return field.dec_elem(min(codes))


def _one_root(step: FrobeniusStep, g: Poly, deg_L: int, rng: random.Random):
    """A root of g, the monic f of ``step`` over its field F, where g is a
    product of distinct linear factors over the subfield L of F of degree
    deg_L over the prime field.

    Equal-degree splitting into linear factors by ``_trace_split``, with the
    random coefficients drawn from L as the relative trace Tr_{F/L} of
    random elements of F.  The traces run mod f, so the one step serves
    every factor; only the smaller factor is kept after each split.
    """
    F = g.field
    p, d = F.char, F.degree
    sigma = F.frob_p_matrix(deg_L) if deg_L < d else None  # y -> y^|L| on F
    while g.degree() > 1:
        k = g.degree()
        a = np.array([[rng.randrange(p) for _ in range(k)] for _ in range(d)], dtype=np.int64)
        if sigma is not None:
            acc, cur = a, a
            for _ in range(d // deg_L - 1):
                cur = (sigma @ cur) % p
                acc = acc + cur
            a = acc % p
        if not a[:, 1:].any():
            continue
        c = _trace_split(step, a.T, g, deg_L)
        if 0 < c.degree() < k:
            g = c if 2 * c.degree() <= k else g.exact_div(c)
    return -g.coeffs[0]


def mobius(m: Poly) -> int:
    """Mobius function on monic polynomials in A."""
    if m.is_zero():
        raise ZeroInputError("mobius of zero")
    if not m.is_monic():
        raise NotMonicError("mobius needs a monic polynomial")
    if m.degree() == 0:
        return 1
    fac = factorize(m)
    if any(mult > 1 for _, mult in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


SIEVE_LIMIT = 1 << 24  # monic codes one sieve may cover
_SIEVE_BATCH = 1 << 18  # prime coordinates per batch of cofactors


def enumerate_monic_irreducibles(field, deg: int) -> Iterator[Poly]:
    """Monic irreducibles of exact degree ``deg`` over the tower field F_q, in
    lexicographic order: by increasing code sum c_i q^i, where c_i is the
    int code of the coefficient of T^i.

    The primes come from a sieve over all q^deg monic codes
    (``_irreducible_codes``), so no candidate takes an irreducibility test.
    A sieve over more than ``SIEVE_LIMIT`` codes raises ResourceLimitError
    before anything is allocated.
    """
    if deg < 1:
        raise DrinfeldError("degree must be >= 1")
    codes = _irreducible_codes(field, deg)
    elems = [field.dec_elem(c) for c in range(field.order)]
    one = field.one_elem()
    for row in _digits(codes, field.order, deg).tolist():
        yield Poly(field, [elems[c] for c in row] + [one], normalize=False)


def _irreducible_codes(field, deg: int) -> np.ndarray:
    """Increasing codes of the monic irreducibles of degree deg >= 1.

    A bitmap over the q^deg monic codes marks every product g*h with g monic
    irreducible of degree k <= deg/2 (from this sieve, recursively) and h any
    monic polynomial of degree deg - k; a reducible polynomial has such a
    factor g, so the unmarked codes are the primes.  The cofactors h come in
    batches of prime-coordinate arrays, multiplied by each coefficient of g
    through its matrix ``field.mult_matrix``, so prime and prime-power q
    share one route.
    """
    q = field.order
    if q**deg > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"a sieve over {q}^{deg} monic polynomials exceeds the limit {SIEVE_LIMIT}"
        )
    composite = np.zeros(q**deg, dtype=bool)
    for k in range(1, deg // 2 + 1):
        factors = [
            [(i, field.mult_matrix(c).T if i < k else None) for i, c in enumerate(g) if c.any()]
            for g in _monic_coords(field, _irreducible_codes(field, k), k)
        ]
        m = deg - k
        step = max(1, _SIEVE_BATCH // ((m + 1) * field.degree))
        for lo in range(0, q**m, step):
            hs = _monic_coords(field, np.arange(lo, min(lo + step, q**m), dtype=np.int64), m)
            for g in factors:
                prod = np.zeros((len(hs), deg + 1, field.degree), dtype=np.int64)
                for i, mat in g:
                    prod[:, i : i + m + 1] += hs if mat is None else hs @ mat
                composite[_monic_codes(field, prod % field.char)] = True
    return np.flatnonzero(~composite)


def _monic_coords(field, codes: np.ndarray, m: int) -> np.ndarray:
    """The (len(codes), m + 1, e) prime-coordinate array of the monic
    polynomials of degree m with the given codes (e = [F_q : F_p])."""
    out = np.zeros((len(codes), m + 1, field.degree), dtype=np.int64)
    out[:, :m] = _digits(_digits(codes, field.order, m), field.char, field.degree)
    out[:, m, 0] = 1
    return out


def _digits(codes: np.ndarray, base: int, n: int) -> np.ndarray:
    """The n lowest base-``base`` digits of each code, in a new last axis."""
    return (codes[..., None] // base ** np.arange(n, dtype=np.int64)) % base


def _monic_codes(field, coords: np.ndarray) -> np.ndarray:
    """Inverse of ``_monic_coords``: the codes of monic prime-coordinate rows."""
    e, deg = field.degree, coords.shape[1] - 1
    elems = coords[:, :deg] @ field.char ** np.arange(e, dtype=np.int64)
    return elems @ field.order ** np.arange(deg, dtype=np.int64)


def int_mobius(n: int) -> int:
    out = 1
    for ell in int_prime_factors(n):
        if n % (ell * ell) == 0:
            return 0
        out = -out
    return out


def count_monic_irreducibles(q: int, d: int) -> int:
    """Necklace formula (1/d) sum_{e|d} mu(e) q^(d/e)."""
    total = sum(int_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


def crt(residues: list[Poly], moduli: list[Poly]) -> Poly:
    """Canonical representative mod prod(moduli), pairwise coprime moduli."""
    if len(residues) != len(moduli) or not moduli:
        raise DrinfeldError("crt needs matching nonempty residue/modulus lists")
    field = moduli[0].field
    total = Poly.one(field)
    for m in moduli:
        total = total * m
    out = Poly.zero(field)
    for r, m in zip(residues, moduli):
        rest = total.exact_div(m)
        g, u, _ = poly_xgcd(rest, m)
        if g.degree() != 0:
            raise DrinfeldError("crt moduli are not pairwise coprime")
        out = out + rest * u * r
    return out % total
