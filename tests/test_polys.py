import random

import numpy as np
import pytest

from drinfeld.amatrix import (
    bareiss_det,
    discriminant,
    ring_det,
    rational_canonical_form,
    smith_normal_form,
)
from drinfeld.errors import (
    NotIrreducibleError,
    NotMonicError,
    SingularMatrixError,
    ZeroInputError,
)
from drinfeld.polys import (
    NEG_INF,
    Poly,
    count_monic_irreducibles,
    crt,
    enumerate_monic_irreducibles,
    factorize,
    frobenius_matrix,
    is_irreducible,
    mobius,
    poly_gcd,
    squarefree_split,
)
from drinfeld.textio import poly_to_text, poly_from_text


def T_one(tower):
    F = tower.base_field
    return Poly.x(F), Poly.one(F)


def test_degree_of_zero_is_marker(tower3):
    assert Poly.zero(tower3.base_field).degree() == NEG_INF
    assert NEG_INF < 0


def test_is_irreducible_examples(tower3):
    T, one = T_one(tower3)
    assert is_irreducible(T)
    assert not is_irreducible(T * T)
    assert is_irreducible(T * T + one)
    with pytest.raises(ZeroInputError):
        is_irreducible(Poly.zero(tower3.base_field))


def test_factorize_examples(tower3):
    T, one = T_one(tower3)
    fac = factorize(T * (T + one))
    assert fac.unit.is_one()
    assert [(poly_to_text(g), m) for g, m in fac.factors] == [("T", 1), ("T+1", 1)]
    fac2 = factorize(T.scale(tower3.from_int(2)))
    assert fac2.unit == tower3.from_int(2)
    assert [(poly_to_text(g), m) for g, m in fac2.factors] == [("T", 1)]
    fac3 = factorize(T**4 + T)
    assert [(poly_to_text(g), m) for g, m in fac3.factors] == [("T", 1), ("T+1", 3)]


def test_factorize_roundtrip_random(tower3):
    F = tower3.base_field
    rng = random.Random(11)
    for _ in range(60):
        coeffs = [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 9))]
        f = Poly(F, coeffs)
        if f.is_zero():
            continue
        fac = factorize(f)
        assert fac.value() == f
        for g, _ in fac.factors:
            assert is_irreducible(g) and g.is_monic()


def test_squarefree_split_examples(tower3):
    T, one = T_one(tower3)
    s = squarefree_split(T * T * (T + one))
    assert (poly_to_text(s.conductor_part), poly_to_text(s.squarefree_part)) == ("T", "T+1")
    s2 = squarefree_split(T + one)
    assert s2.conductor_part.is_one() and poly_to_text(s2.squarefree_part) == "T+1"
    s3 = squarefree_split(T**6)
    assert (poly_to_text(s3.conductor_part), poly_to_text(s3.squarefree_part)) == ("T^3", "1")


def test_squarefree_split_reconstructs(tower3):
    F = tower3.base_field
    rng = random.Random(5)
    for _ in range(60):
        coeffs = [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 10))]
        f = Poly(F, coeffs)
        if f.is_zero():
            continue
        s = squarefree_split(f)
        assert s.conductor_part.is_monic() and s.squarefree_part.is_monic()
        assert f == (s.conductor_part * s.conductor_part * s.squarefree_part).scale(s.unit)
        assert poly_gcd(s.squarefree_part, s.squarefree_part.derivative()).degree() <= 0


def test_mobius(tower3):
    T, one = T_one(tower3)
    assert mobius(one) == 1
    assert mobius(T) == -1
    assert mobius(T * T) == 0
    assert mobius(T * (T + one)) == 1
    with pytest.raises(NotMonicError):
        mobius(T.scale(tower3.from_int(2)))


def test_enumerate_monic_irreducibles(tower3, tower2):
    F3 = tower3.base_field
    deg1 = [poly_to_text(f) for f in enumerate_monic_irreducibles(F3, 1)]
    assert deg1 == ["T", "T+1", "T+2"]
    deg2 = list(enumerate_monic_irreducibles(F3, 2))
    assert len(deg2) == 3 == count_monic_irreducibles(3, 2)
    F2 = tower2.base_field
    deg3 = [poly_to_text(f) for f in enumerate_monic_irreducibles(F2, 3)]
    assert deg3 == ["T^3+T+1", "T^3+T^2+1"]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_necklace_counts(q, tower2, tower3, tower5):
    tower = {2: tower2, 3: tower3, 5: tower5}[q]
    for d in range(1, 7):
        got = sum(1 for _ in enumerate_monic_irreducibles(tower.base_field, d))
        assert got == count_monic_irreducibles(q, d)


def test_divmod_random(tower3):
    F = tower3.base_field
    rng = random.Random(3)
    for _ in range(1000):
        a = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(0, 9))])
        b = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert a == q * b + r
        assert r.degree() < b.degree()


def test_crt_random(tower3):
    F = tower3.base_field
    T, one = Poly.x(F), Poly.one(F)
    moduli = [T, T + one, T * T + one]
    rng = random.Random(17)
    for _ in range(50):
        f = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(6)])
        rec = crt([f % m for m in moduli], moduli)
        for m in moduli:
            assert (rec - f) % m == Poly.zero(F)
        total = T * (T + one) * (T * T + one)
        assert rec.degree() < total.degree()


def test_poly_text_roundtrip(tower3):
    F = tower3.base_field
    rng = random.Random(23)
    for _ in range(40):
        f = Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(rng.randrange(1, 7))])
        if f.is_zero():
            continue
        assert poly_from_text(poly_to_text(f), tower3) == f


def test_smith_normal_form_examples(tower3):
    F = tower3.base_field
    T, one, zero = Poly.x(F), Poly.one(F), Poly.zero(F)
    assert [poly_to_text(f) for f in smith_normal_form([[one, zero], [zero, one]])] == ["1", "1"]
    assert [poly_to_text(f) for f in smith_normal_form([[T, zero], [zero, T * T]])] == ["T", "T^2"]
    assert [poly_to_text(f) for f in smith_normal_form([[T, one], [zero, T]])] == ["1", "T^2"]
    with pytest.raises(SingularMatrixError):
        smith_normal_form([[T, T], [T, T]])


def test_smith_normal_form_properties(tower3):
    from drinfeld.amatrix import ring_det

    F = tower3.base_field
    rng = random.Random(31)
    for _ in range(25):
        m = [
            [Poly(F, [F.dec_elem(rng.randrange(3)) for _ in range(3)]) for _ in range(3)]
            for _ in range(3)
        ]
        det = ring_det([row[:] for row in m])
        if det.is_zero():
            continue
        factors = smith_normal_form(m)
        prod = Poly.one(F)
        for i, f in enumerate(factors):
            prod = prod * f
            if i:
                assert (f % factors[i - 1]).is_zero()
        assert prod == det.monic()


def _random_matrix(field, rows, cols, rng, deg=2):
    return [
        [Poly(field, [field.dec_elem(rng.randrange(field.order)) for _ in range(deg + 1)])
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _determinantal_factors(m):
    """d_k = D_k / D_(k-1), D_k the monic gcd of the k x k minors."""
    from itertools import combinations

    from drinfeld.amatrix import ring_det

    field = m[0][0].field
    prev, out = Poly.one(field), []
    for k in range(1, len(m[0]) + 1):
        g = Poly.zero(field)
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                g = poly_gcd(g, ring_det([[m[i][j] for j in cols] for i in rows]))
        if g.is_zero():
            return None
        out.append(g.exact_div(prev))
        prev = g
    return out


def test_smith_normal_form_tall_matches_the_square_form(tower3):
    """Rows that are A-combinations of a square matrix's rows, or zero rows,
    do not change its invariant factors."""
    F = tower3.base_field
    rng = random.Random(47)
    checked = 0
    for _ in range(20):
        n = rng.randrange(1, 4)
        m = _random_matrix(F, n, n, rng)
        try:
            want = smith_normal_form(m)
        except SingularMatrixError:
            continue
        comb = _random_matrix(F, rng.randrange(1, 4), n, rng, deg=1)
        extra = [[sum((c[i] * m[i][j] for i in range(n)), Poly.zero(F)) for j in range(n)]
                 for c in comb]
        rows = m + extra + [[Poly.zero(F)] * n]
        rng.shuffle(rows)
        assert smith_normal_form(rows) == want
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("q,degree", [(3, 1), (4, 4), (9, 4)], ids=["A", "Fp[T]-q4", "Fp[T]-q9"])
def test_smith_normal_form_tall_matches_determinantal_divisors(q, degree):
    """On random n x c matrices, n >= c, over A and over F_p[T] with e = 2,
    the invariant factors are the quotients of the determinantal divisors."""
    from drinfeld.fields import FieldTower

    field = FieldTower(q).field(degree)
    rng = random.Random(53 + q)
    checked = 0
    for _ in range(12):
        c = rng.randrange(1, 4)
        m = _random_matrix(field, c + rng.randrange(0, 3), c, rng, deg=1 + (q < 9))
        want = _determinantal_factors(m)
        if want is None:
            with pytest.raises(SingularMatrixError):
                smith_normal_form(m)
            continue
        assert smith_normal_form(m) == want
        checked += 1
    assert checked >= 8


def test_smith_normal_form_rejects_wide_and_deficient_matrices(tower3):
    F = tower3.base_field
    T, one, zero = Poly.x(F), Poly.one(F), Poly.zero(F)
    with pytest.raises(SingularMatrixError, match="at least as many rows"):
        smith_normal_form([[T, one]])
    with pytest.raises(SingularMatrixError, match="rank below"):
        smith_normal_form([[T, T], [one, one], [zero, zero]])


def test_charpoly_coefficients_over_quotients(tower3):
    """det(xI - M) = x^3 - tr x^2 + (sum of principal 2-minors) x - det, over a
    field A/(T^2+1) and over the non-domain A/(T^2)."""
    from drinfeld.amatrix import charpoly, ring_det
    from drinfeld.quotients import QuotRing

    F = tower3.base_field
    rng = random.Random(7)
    for modulus in ([1, 0, 1], [0, 0, 1]):
        ring = QuotRing(Poly.from_ints(F, modulus))
        for _ in range(10):
            m = [[ring.dec_elem(rng.randrange(ring.order)) for _ in range(3)] for _ in range(3)]
            cp = charpoly(m)
            minors = ring.zero_elem()
            for i in range(3):
                for j in range(i + 1, 3):
                    minors = minors + ring_det([[m[i][i], m[i][j]], [m[j][i], m[j][j]]])
            assert cp.degree() == 3 and cp[3].is_one()
            assert cp[2] == -(m[0][0] + m[1][1] + m[2][2])
            assert cp[1] == minors
            assert cp[0] == -ring_det(m)
        a = ring.dec_elem(5)
        assert charpoly([[a]]).coeffs == (-a, ring.one_elem())


def test_rcf_examples(tower3):
    F = tower3.base_field
    T, one, zero = Poly.x(F), Poly.one(F), Poly.zero(F)
    two = Poly.from_ints(F, [2])
    ell = T + one
    # scalar matrix is its own canonical form
    canon, factors = rational_canonical_form([[two, zero], [zero, two]], ell)
    assert len(factors) == 2
    assert canon[0][0].rep == two % ell and canon[1][1].rep == two % ell
    assert canon[0][1].is_zero() and canon[1][0].is_zero()
    # non-semisimple unipotent class: single factor (x-1)^2
    canon2, factors2 = rational_canonical_form([[one, zero], [two, one]], ell)
    assert len(factors2) == 1
    f = factors2[0]
    assert f.degree() == 2
    # (x-1)^2 = x^2 + x + 1 mod 3
    assert [c.rep.coeffs for c in f.coeffs] == [
        (F.one_elem(),),
        (F.one_elem(),),
        (F.one_elem(),),
    ]
    with pytest.raises(NotIrreducibleError):
        rational_canonical_form([[one, zero], [zero, one]], T * T)


def test_rcf_detects_conjugacy(tower3):
    """Brute-force oracle: all GL_2(F_3)-conjugates of a matrix share one form."""
    from drinfeld.quotients import QuotRing, mat_mul

    F = tower3.base_field
    T, one, zero = Poly.x(F), Poly.one(F), Poly.zero(F)
    ell = T + one
    ring = QuotRing(ell)
    els = list(ring.elements())
    mats = [
        [[a, b], [c, d]]
        for a in els
        for b in els
        for c in els
        for d in els
        if (a * d - b * c).is_unit()
    ]
    assert len(mats) == 48  # |GL_2(F_3)|
    uq = [[ring.reduce(one), ring.reduce(zero)], [ring.reduce(Poly.from_ints(F, [2])), ring.reduce(one)]]
    canon0, _ = rational_canonical_form([[e.rep for e in row] for row in uq], ell)
    rng = random.Random(2)
    for g in rng.sample(mats, 40):
        gi = _inv2(g)
        conj = mat_mul(mat_mul(g, uq, ring), gi, ring)
        canon, _ = rational_canonical_form([[e.rep for e in row] for row in conj], ell)
        assert _mat_eq(canon, canon0)


def _inv2(m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    di = det.inv()
    return [[m[1][1] * di, (-m[0][1]) * di], [(-m[1][0]) * di, m[0][0] * di]]


def _mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_discriminant_rank3_anchor(tower2):
    F = tower2.base_field
    T, one, zero = Poly.x(F), Poly.one(F), Poly.zero(F)
    d = discriminant([T, one, zero, one], F)  # x^3 + x + T over F_2
    assert poly_to_text(d) == "T^2"


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bareiss_matches_cofactor_determinant_on_sylvester_matrices(q):
    """The fraction-free determinant equals the cofactor expansion on the
    Sylvester matrices of random pairs of polynomials in x over A; their
    leading coefficients may be 0, so zero pivots occur."""
    from drinfeld.amatrix import resultant
    from drinfeld.fields import FieldTower

    F = FieldTower(q).base_field
    rng = random.Random(q)

    def coeff():
        return Poly(F, [F.dec_elem(rng.randrange(q)) for _ in range(rng.randrange(4))])

    for _ in range(30):
        a = [coeff() for _ in range(rng.randint(3, 5))]
        b = [coeff() for _ in range(rng.randint(2, 4))]
        da, db = len(a) - 1, len(b) - 1
        zero = Poly.zero(F)
        rows = [[zero] * i + a[::-1] + [zero] * (db - 1 - i) for i in range(db)]
        rows += [[zero] * i + b[::-1] + [zero] * (da - 1 - i) for i in range(da)]
        assert bareiss_det(rows) == ring_det(rows) == resultant(a, b, F)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_rank2_discriminant_is_the_closed_form(q):
    """In rank 2 the resultant discriminant of x^2 + c_1 x + c_0 is c_1^2 - 4 c_0."""
    from drinfeld.fields import FieldTower

    F = FieldTower(q).base_field
    rng = random.Random(q)
    four = Poly.from_ints(F, [4])
    for _ in range(30):
        c0, c1 = (Poly(F, [F.dec_elem(rng.randrange(q)) for _ in range(rng.randrange(5))])
                  for _ in "01")
        assert discriminant([c0, c1, Poly.one(F)], F) == c1 * c1 - four * c0


def _is_prime(f: Poly) -> bool:
    fac = factorize(f).factors
    return len(fac) == 1 and fac[0][1] == 1


def _fixes_x(F, f: Poly) -> bool:
    """Rabin's first condition f | x^(|F|^d) - x: Q^d x = x for the matrix Q
    of u -> u^|F| on F[x]/(f)."""
    d, e = f.degree(), F.degree
    frob = frobenius_matrix(F, F.coeff_array(f.coeffs))
    x = u = np.eye(d * e, dtype=np.int64)[e]
    for _ in range(d):
        u = frob @ u % F.char
    return np.array_equal(u, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rabin_matches_factorize(q):
    """The prime test on the Frobenius matrix agrees with the factorization
    on random monic polynomials of degrees 2-16, and with the sieve on a few
    primes of each degree, whose irreducibility it must confirm.  At even d
    it also rejects h1 h2, two distinct primes of degree d/2, which passes
    Rabin's first condition so that only the rank of Q - I rejects it, and
    h1^2, which only the first condition rejects."""
    from drinfeld.fields import FieldTower

    F = FieldTower(q).base_field
    rng = random.Random(q)

    def monic(d):
        return Poly(F, [F.dec_elem(rng.randrange(q)) for _ in range(d)] + [F.one_elem()])

    for d in range(2, 17):
        polys = [monic(d) for _ in range(4)]
        primes = enumerate_monic_irreducibles(F, d) if q**d <= 1 << 16 else []
        polys += [p for p, _ in zip(primes, range(2))]
        for f in polys:
            assert is_irreducible(f) == _is_prime(f), (q, f)
        if d % 2 == 0 and count_monic_irreducibles(q, d // 2) > 1:  # not q = 2, d = 4
            h1 = next(h for h in iter(lambda: monic(d // 2), None) if _is_prime(h))
            h2 = next(h for h in iter(lambda: monic(d // 2), None) if _is_prime(h) and h != h1)
            assert _fixes_x(F, h1 * h2) and not is_irreducible(h1 * h2), (q, d)
            assert not _fixes_x(F, h1 * h1) and not is_irreducible(h1 * h1), (q, d)
