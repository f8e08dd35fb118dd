"""Randomized property suites (hypothesis drives the case generation)."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from drinfeld import linalg
from drinfeld.amatrix import ring_det, smith_normal_form
from drinfeld.errors import (
    BadReductionError,
    DrinfeldError,
    NotIrreducibleError,
    ResourceLimitError,
)
from drinfeld.fields import TABLE_LIMIT, FFElem, FieldTower
from drinfeld.invariants import weil_general, weil_motive
from drinfeld.modules import DrinfeldModule, ResidueField, motive_frobenius, reduce_at
from drinfeld.polys import (
    FrobeniusStep,
    Poly,
    crt,
    enumerate_monic_irreducibles,
    factorize,
    is_irreducible,
    lex_min_root,
    poly_gcd,
    powint,
    powmod,
    roots_in_field,
    schoolbook_divmod,
    schoolbook_gcd,
    schoolbook_powmod,
    splits_separably,
    table_roots,
)
from drinfeld.skew import SkewPoly, left_blocks, left_mul, skew_right_divmod
from drinfeld.textio import module_from_text, poly_from_text
from drinfeld.torsion import (
    _poly_at,
    _splitting_degree,
    fq_invariant_factors,
    torsion_basis_reduced,
)
from test_torsion_pin import CASES as TORSION_PIN_CASES

TOWER3 = FieldTower(3, max_degree=64)
TOWER9 = FieldTower(9, max_degree=64)
F9 = TOWER9.base_field
F36 = TOWER3.field(6)
TOWER2 = FieldTower(2, max_degree=64)
TOWER5 = FieldTower(5, max_degree=64)
# F_5, F_4, F_8, and F_9 both as an extension of F_3 and as the base of q = 9
SPLIT_FIELDS = {
    "F5": TOWER5.base_field,
    "F4": TOWER2.field(2),
    "F8": TOWER2.field(3),
    "F9_ext": TOWER3.field(2),
    "F9_base": F9,
}


def elem(ctx):
    return st.integers(min_value=0, max_value=ctx.order - 1).map(ctx.dec_elem)


def skew(ctx, max_deg=4):
    return st.lists(elem(ctx), min_size=1, max_size=max_deg + 1).map(
        lambda cs: SkewPoly(ctx, cs)
    )


def poly(ctx, max_len=6):
    return st.lists(elem(ctx), min_size=0, max_size=max_len).map(lambda cs: Poly(ctx, cs))


@given(a=elem(F36), b=elem(F36), c=elem(F36))
@settings(max_examples=200, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == F36.one_elem()


@given(a=elem(F36), b=elem(F36))
@settings(max_examples=200, deadline=None)
def test_frobenius_is_ring_hom(a, b):
    fr = TOWER3.frobenius_power
    assert fr(a + b, 1) == fr(a, 1) + fr(b, 1)
    assert fr(a * b, 1) == fr(a, 1) * fr(b, 1)


@given(a=elem(F36), b=elem(F36))
@settings(max_examples=100, deadline=None)
def test_norm_multiplicative(a, b):
    n = TOWER3.norm_to_base
    assert n(a * b) == n(a) * n(b)


@given(f=skew(F9), g=skew(F9))
@settings(max_examples=200, deadline=None)
def test_skew_right_division_identity(f, g):
    if g.is_zero():
        return
    q, r = skew_right_divmod(f, g)
    assert f == q * g + r
    assert r.is_zero() or r.degree() < g.degree()


@given(f=skew(F9), g=skew(F9))
@settings(max_examples=150, deadline=None)
def test_skew_degree_additive(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert (f * g).degree() == f.degree() + g.degree()


@given(f=poly(TOWER3.base_field), g=poly(TOWER3.base_field), h=poly(TOWER3.base_field))
@settings(max_examples=150, deadline=None)
def test_poly_gcd_divides(f, g, h):
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    if not f.is_zero():
        assert (f % d).is_zero()
    if not g.is_zero():
        assert (g % d).is_zero()


@given(f=poly(TOWER3.base_field, max_len=5))
@settings(max_examples=100, deadline=None)
def test_crt_reconstruction(f):
    F = TOWER3.base_field
    T, one = Poly.x(F), Poly.one(F)
    moduli = [T, T + one, T + one + one]
    rec = crt([f % m for m in moduli], moduli)
    for m in moduli:
        assert (rec - f) % m == Poly.zero(F)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_psi_ring_homomorphism(data):
    from drinfeld.modules import DrinfeldModule, psi_of

    F = TOWER3.base_field
    psi = DrinfeldModule(TOWER3, [Poly.one(F), Poly.one(F)])
    a = data.draw(poly(F, max_len=3))
    b = data.draw(poly(F, max_len=3))
    if a.is_zero() or b.is_zero():
        return
    pa, pb = psi_of(psi, a), psi_of(psi, b)
    assert psi_of(psi, a * b) == pa * pb
    assert pa * pb == pb * pa


@st.composite
def factored_poly(draw, ctx):
    """A unit times monic factors of degree <= 3, each with multiplicity 1, 2,
    3 or char (a p-th power)."""
    f = Poly.constant(draw(elem(ctx).filter(lambda c: not c.is_zero())))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        tail = draw(st.lists(elem(ctx), min_size=1, max_size=3))
        g = Poly(ctx, tail + [ctx.one_elem()])
        f = f * g ** draw(st.sampled_from([1, 2, 3, ctx.char]))
    return f


# the split test's two routes: roots in logs on the table fields, and the
# p-power step above TABLE_LIMIT on F_(3^10) and F_(2^15)
SPLIT_ROUTE_FIELDS = {**SPLIT_FIELDS, "F3^10": TOWER3.field(10), "F2^15": TOWER2.field(15)}


def factorization_split_oracle(f):
    """Every factor of f linear and of multiplicity 1, by ``factorize``."""
    return all(g.degree() == 1 and m == 1 for g, m in factorize(f).factors)


@pytest.mark.parametrize("name", list(SPLIT_ROUTE_FIELDS))
def test_split_predicate_matches_factorization(name):
    """The split test agrees with the factorization on either side of the
    table limit: f has deg f distinct roots iff every factor is linear and
    of multiplicity 1."""
    ctx = SPLIT_ROUTE_FIELDS[name]

    @given(f=factored_poly(ctx))
    @settings(max_examples=300 if ctx.order <= TABLE_LIMIT else 100, deadline=None)
    def check(f):
        assert splits_separably(f) == factorization_split_oracle(f)

    check()


@pytest.mark.parametrize("name", list(SPLIT_ROUTE_FIELDS))
def test_split_predicate_multiplicity_edges(name):
    """Multiplicities at the edges of the p-power bound: (x - a)^p and
    (x - a)^(p+1), and degrees p^j and p^j + 1 with and without a factor
    that does not split.  A repeated root gives False; distinct linear
    factors and the constants give True."""
    ctx = SPLIT_ROUTE_FIELDS[name]
    p = ctx.char
    x, one = Poly.x(ctx), Poly.one(ctx)
    a, b = ctx.dec_elem(ctx.order - 1), ctx.dec_elem(1)
    la, lb = x - Poly.constant(a), x - Poly.constant(b)
    quads = (x * x + x + Poly.constant(ctx.dec_elem(c)) for c in range(1, ctx.order))
    quad = next(g for g in quads if is_irreducible(g))
    cases = [
        (la**p, False),
        (la ** (p + 1), False),
        (x**p, False),
        (la ** (p * p), False),
        (la ** (p * p + 1), False),
        (la ** (p * p) * lb, False),
        (la ** (p - 1) * lb ** (p * p - p + 1), False),
        (la ** (p * p - 2) * quad, False),
        (la ** (p * p - 1) * quad, False),
        (la ** (p - 1) * quad, False),
        (quad**p, False),
        (la * lb, True),
        (la * lb * quad, False),
        (Poly.constant(a), True),
        (one, True),
    ]
    for f, expected in cases:
        assert splits_separably(f) == expected == factorization_split_oracle(f), f


# q -> (tower, largest [F:K] for the roots_in_field oracle; F stays table-sized)
ROOT_TOWERS = {
    2: (TOWER2, 12),
    3: (TOWER3, 8),
    4: (FieldTower(4, max_degree=64), 5),
    5: (TOWER5, 5),
    9: (TOWER9, 4),
}
_IRREDUCIBLES: dict = {}


def _irreducibles(q, m):
    if (q, m) not in _IRREDUCIBLES:
        base = ROOT_TOWERS[q][0].base_field
        _IRREDUCIBLES[(q, m)] = list(enumerate_monic_irreducibles(base, m))
    return _IRREDUCIBLES[(q, m)]


def _lex_min_root_into(tower, f, big):
    return lex_min_root(f, big, lambda c: tower.embed(c, big), "no split")


@pytest.mark.parametrize("q", list(ROOT_TOWERS))
def test_lex_min_root_matches_roots_in_field(q, deadline):
    """The orbit route returns the smallest of all roots of f over F, for F
    equal to L = F_(q^m) and for proper extensions of L."""
    tower, cap = ROOT_TOWERS[q]
    e = tower.base_degree

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def check(data):
        m = data.draw(st.integers(min_value=1, max_value=min(cap, 4)))
        j = data.draw(st.integers(min_value=1, max_value=cap // m))
        f = data.draw(st.sampled_from(_irreducibles(q, m)))
        big = tower.field(e * m * j)
        roots = roots_in_field(f.map_coeffs(lambda c: tower.embed(c, big), big))
        assert len(roots) == m
        assert _lex_min_root_into(tower, f, big) == min(roots, key=lambda r: r.int_code())

    with deadline(120):
        check()


def _f(tower, *ints):
    return Poly.from_ints(tower.base_field, ints)


# (tower, degree of F over the prime field): F_(3^10), F_(2^15) and F_(4^8)
# lie above TABLE_LIMIT, where lex_min_root takes the split test and Rabin's
# root finding on coordinate arrays
LARGE_ROOT_FIELDS = {
    "F3^10": (TOWER3, 10),
    "F2^15": (TOWER2, 15),
    "F4^8": (ROOT_TOWERS[4][0], 16),
}


@pytest.mark.parametrize("name", list(LARGE_ROOT_FIELDS))
def test_lex_min_root_matches_roots_in_field_above_table_limit(name, deadline):
    """The split route returns the smallest of all roots of f over F, for
    every degree m with F_(q^m) inside F."""
    tower, degree = LARGE_ROOT_FIELDS[name]
    big = tower.field(degree)
    assert big.order > TABLE_LIMIT
    rel = degree // tower.base_degree

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def check(data):
        m = data.draw(st.sampled_from([m for m in range(1, rel + 1) if rel % m == 0]))
        f = data.draw(st.sampled_from(_irreducibles(tower.q, m)))
        roots = roots_in_field(f.map_coeffs(lambda c: tower.embed(c, big), big))
        assert len(roots) == m
        assert _lex_min_root_into(tower, f, big) == min(roots, key=lambda r: r.int_code())

    with deadline(120):
        check()


# table fields for the Zech route: F_4, F_5, F_8, F_9 twice, F_(2^10),
# F_(3^8), F_(4^5)
TABLE_ROOT_FIELDS = {
    **SPLIT_FIELDS,
    "F2^10": TOWER2.field(10),
    "F3^8": TOWER3.field(8),
    "F4^5": ROOT_TOWERS[4][0].field(10),
}


@pytest.mark.parametrize("name", list(TABLE_ROOT_FIELDS))
def test_table_roots_match_roots_in_field(name):
    """The Zech-log evaluation finds exactly the roots of the equal-degree
    split, for products of linear factors (repeated ones and the root 0
    included) with a random cofactor."""
    ctx = TABLE_ROOT_FIELDS[name]

    @given(
        linear=st.lists(elem(ctx), min_size=0, max_size=8),
        cofactor=poly(ctx, max_len=5).filter(lambda g: not g.is_zero()),
    )
    @settings(max_examples=40, deadline=None)
    def check(linear, cofactor):
        f = cofactor
        for r in linear:
            f = f * Poly(ctx, [-r, ctx.one_elem()])
        assert table_roots(f) == roots_in_field(f)
        assert set(linear) <= set(table_roots(f))

    check()


@pytest.mark.parametrize(
    "tower,f,big_degree",
    [
        (TOWER3, _f(TOWER3, 0, 1, 1), 2),  # x(x+1): splits over F_9, reducible
        (TOWER3, _f(TOWER3, 1, 0, 1) * _f(TOWER3, 2, 1, 1), 4),  # two quadratics, split over F_81
        (TOWER2, _f(TOWER2, 0, 1, 1), 2),  # x(x+1) over F_2, into F_4
        (TOWER3, _f(TOWER3, 1, 2, 0, 1), 2),  # an irreducible cubic: 3 does not divide [F_9:F_3]
        (TOWER3, _f(TOWER3, 1, 2, 0, 1), 4),  # ... nor [F_81:F_3]
        (TOWER3, _f(TOWER3, 1, 2, 1), 2),  # (x+1)^2: a repeated root
        (TOWER3, _f(TOWER3, 1, 0, 1) ** 2, 4),  # the square of an irreducible quadratic
        (TOWER2, _f(TOWER2, 1, 0, 1), 2),  # (x+1)^2 over F_2, into F_4
        # degree 5 divides [F:K], but neither factor splits over F_(3^5)
        (TOWER3, _f(TOWER3, 1, 0, 1) * _f(TOWER3, 1, 2, 0, 1), 5),
        # (x^2+x+1)(x^3+x+1) has no root in F_32: its roots lie in F_4 and F_8
        (TOWER2, _f(TOWER2, 1, 1, 1) * _f(TOWER2, 1, 1, 0, 1), 5),
        # above TABLE_LIMIT: x(x+1) passes the split test, then its orbit of 1
        (TOWER3, _f(TOWER3, 0, 1, 1), 10),
        (TOWER3, _f(TOWER3, 1, 0, 1) * _f(TOWER3, 1, 2, 0, 1), 10),
        (TOWER2, _f(TOWER2, 0, 1, 0, 1), 15),  # x(x+1)^2: a repeated root
        (TOWER2, _f(TOWER2, 1, 1, 0, 0, 0, 1), 15),  # (x^2+x+1)(x^3+x^2+1)
        (ROOT_TOWERS[4][0], _f(ROOT_TOWERS[4][0], 0, 1, 1), 16),  # x(x+1) over F_4
        (ROOT_TOWERS[4][0], _f(ROOT_TOWERS[4][0], 1, 0, 1), 16),  # (x+1)^2 over F_4
    ],
    ids=[
        "reducible-q3", "two-quadratics-q3", "reducible-q2", "cubic-into-F9",
        "cubic-into-F81", "repeated-root-q3", "square-q3", "repeated-root-q2",
        "no-split-q3", "no-root-q2", "reducible-F3^10", "no-split-F3^10", "repeated-root-F2^15",
        "no-split-F2^15", "reducible-F4^8", "repeated-root-F4^8",
    ],
)
def test_lex_min_root_rejects_at_once(tower, f, big_degree, deadline):
    big = tower.field(big_degree)
    with deadline(10), pytest.raises(DrinfeldError, match="no split"):
        _lex_min_root_into(tower, f, big)


# (q, deg p): residue fields with exactly TABLE_LIMIT = 2^14 elements, and
# F_(2^15) just above it on the split route
TABLE_LIMIT_CORNERS = [(2, 14), (128, 2), (16384, 1), (2, 15)]


@pytest.mark.parametrize("q,deg", TABLE_LIMIT_CORNERS)
def test_t_image_at_the_table_limit(q, deg, deadline):
    """At the table limit the T-image is still the smallest root of p, on
    whichever side of the limit its residue field falls."""
    with deadline(60):
        tower = FieldTower(q, max_degree=64)
        F = tower.base_field
        if deg == 1:
            primes = [_f(tower, 0, 1), Poly(F, [F.dec_elem(q - 1), F.one_elem()])]
        else:
            found = list(enumerate_monic_irreducibles(F, deg))
            primes = [found[0], found[len(found) // 2], found[-1]]
        for p in primes:
            res = ResidueField(tower, p)
            assert (res.ctx.order <= TABLE_LIMIT) == (q**deg <= TABLE_LIMIT)
            roots = roots_in_field(p.map_coeffs(lambda c: tower.embed(c, res.ctx), res.ctx))
            assert res.t_image == min(roots, key=lambda r: r.int_code())


# (tower, field degree over the prime field) above TABLE_LIMIT, where division
# and gcd run on coordinate arrays: F_(3^10), F_(2^15), F_(4^8), and
# F_(16381^2) for int64 headroom
EUCLID_FIELDS = {
    "F3^10": (TOWER3, 10),
    "F2^15": (TOWER2, 15),
    "F4^8": (ROOT_TOWERS[4][0], 16),
    "F16381^2": (FieldTower(16381), 2),
}


@st.composite
def euclid_case(draw, ctx):
    """(a, b): b nonzero with a nonzero lead, so monic or not; a random,
    shorter than b, zero, or a multiple of b (a zero remainder)."""
    k = draw(st.integers(min_value=1, max_value=8))
    lead = draw(elem(ctx).filter(lambda c: not c.is_zero()))
    b = Poly(ctx, draw(st.lists(elem(ctx), min_size=k - 1, max_size=k - 1)) + [lead])
    kind = draw(st.sampled_from(["random", "shorter", "zero", "multiple"]))
    if kind == "random":
        a = draw(poly(ctx, max_len=12))
    elif kind == "shorter":
        a = draw(poly(ctx, max_len=k - 1))
    elif kind == "zero":
        a = Poly.zero(ctx)
    else:
        a = b * draw(poly(ctx, max_len=5))
    return a, b


@pytest.mark.parametrize("name", list(EUCLID_FIELDS))
def test_array_euclid_matches_schoolbook(name):
    """Division and gcd on coordinate arrays equal the coefficient loops,
    the gcd also on a common factor and on zero operands."""
    tower, degree = EUCLID_FIELDS[name]
    ctx = tower.field(degree)
    assert ctx.order > TABLE_LIMIT
    zero = Poly.zero(ctx)

    @given(case=euclid_case(ctx), common=poly(ctx, max_len=4))
    @settings(max_examples=30, deadline=None)
    def check(case, common):
        a, b = case
        assert divmod(a, b) == schoolbook_divmod(a, b)
        with pytest.raises(ZeroDivisionError):
            divmod(a, zero)
        for x, y in [(a, b), (b, a), (a * common, b * common), (a, zero), (zero, a)]:
            assert poly_gcd(x, y) == schoolbook_gcd(x, y)

    check()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_sieve_matches_rabin_filter(q):
    """The sieve yields exactly the monic candidates that pass Rabin's test,
    in the candidates' code order, for every degree with q^deg <= 4096."""
    F = FieldTower(q).base_field
    deg = 1
    while q**deg <= 4096:
        candidates = (
            Poly(F, [F.dec_elem(code // q**i % q) for i in range(deg)] + [F.one_elem()])
            for code in range(q**deg)
        )
        assert list(enumerate_monic_irreducibles(F, deg)) == [f for f in candidates if is_irreducible(f)]
        deg += 1


def test_sieve_size_cap_allocates_nothing(deadline):
    """2^25 monic codes exceed the sieve's limit: the error comes at once,
    before the 32 MB bitmap is allocated."""
    F = TOWER2.base_field
    tracemalloc.start()
    try:
        with deadline(2), pytest.raises(ResourceLimitError, match="exceeds the limit"):
            next(enumerate_monic_irreducibles(F, 25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q", list(ROOT_TOWERS))
def test_reduce_at_agrees_with_rabin(q):
    """For a monic p of degree <= 4, reduce_at returns or raises
    BadReductionError exactly when Rabin's test calls p prime; a composite p
    raises NotIrreducibleError, whether or not it divides g_r."""
    tower = ROOT_TOWERS[q][0]
    F = tower.base_field

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def check(data):
        deg = data.draw(st.integers(min_value=1, max_value=4))
        p = Poly(F, data.draw(st.lists(elem(F), min_size=deg, max_size=deg)) + [F.one_elem()])
        g_r = data.draw(poly(F, max_len=3).filter(lambda g: not g.is_zero()))
        if data.draw(st.booleans()):
            g_r = g_r * p
        psi = DrinfeldModule(tower, [Poly.one(F), g_r])
        try:
            reduce_at(psi, p)
            prime = True
        except BadReductionError:
            prime = True
        except NotIrreducibleError:
            prime = False
        assert prime == is_irreducible(p)

    check()


@st.composite
def module_and_prime(draw, tower, rank, deg_p):
    """psi_T = T + g_1 tau + ... + g_r tau^r with deg g_i <= 1, and a monic
    prime p of degree deg_p with good reduction (p does not divide g_r)."""
    F = tower.base_field
    gs = [draw(poly(F, max_len=2)) for _ in range(rank - 1)]
    gs.append(draw(poly(F, max_len=2).filter(lambda g: not g.is_zero())))
    monic = st.lists(elem(F), min_size=deg_p, max_size=deg_p).map(
        lambda cs: Poly(F, cs + [F.one_elem()])
    )
    p = draw(monic.filter(lambda f: is_irreducible(f) and not (gs[-1] % f).is_zero()))
    return DrinfeldModule(tower, gs), p


# (q, rank, deg p) where one weil_general call stays well under 2 s
MOTIVE_ORACLE_CASES = [(2, r, d) for r in (2, 3, 4) for d in (1, 2, 3)] + [
    (3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2), (3, 3, 2),
]


@pytest.mark.parametrize("q,rank,deg_p", MOTIVE_ORACLE_CASES)
def test_weil_motive_matches_torsion_crt(q, rank, deg_p, deadline):
    """The motive route equals the torsion + CRT oracle.  The tower cap is far
    above the splitting fields these cases need, so no example can end in a
    ResourceLimitError."""
    tower = FieldTower(q, max_degree=4096)

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def check(data):
        psi, p = data.draw(module_and_prime(tower, rank, deg_p))
        assert weil_motive(reduce_at(psi, p)) == weil_general(psi, p)

    with deadline(120):
        check()


def _splitting_degree_oracle(red, a):
    """Least s >= 1 with x^(|F_p|^s) = x mod psibar_a(x), where psibar_a(x) =
    sum c_i x^(q^i) is read as an ordinary polynomial over F_p."""
    ctx, q = red.ctx, red.source.tower.q
    sk = red.psibar_of(a)
    dense = [ctx.zero_elem()] * (q ** sk.degree() + 1)
    for i, c in enumerate(sk.coeffs):
        dense[q**i] = c
    f, x = Poly(ctx, dense), Poly.x(ctx)
    h, s = powmod(x, ctx.order, f), 1
    while h != x:
        h, s = powmod(h, ctx.order, f), s + 1
    return s


@pytest.mark.parametrize("case", TORSION_PIN_CASES, ids=lambda c: f"q{c[0][5:]}-s{c[4]}")
def test_splitting_degree_oracle_on_pinned_cases(request, case):
    tower_name, psi_coeffs, p_ints, a_ints, s = case[:5]
    tower = request.getfixturevalue(tower_name)
    F = tower.base_field
    psi = DrinfeldModule(tower, [Poly.one(F) if c else Poly.zero(F) for c in psi_coeffs])
    red = reduce_at(psi, Poly.from_ints(F, p_ints))
    assert _splitting_degree_oracle(red, Poly.from_ints(F, a_ints)) == s


@pytest.mark.parametrize(
    "q,psi_text,p_text,a_text,s",
    [
        (2, "T+T*t^2", "T^2+T+1", "T", 1),
        (2, "T+1*t^2", "T^4+T^3+1", "T+1", 1),
        (2, "T+T*t+T*t^2", "T^3+T+1", "T", 1),
        (3, "T+1*t^2", "T+1", "T", 2),
    ],
)
def test_splitting_degree_small(q, psi_text, p_text, a_text, s):
    """Frobenius fixes psi[a] (s = 1) or nearly so; the oracle and the torsion
    basis agree."""
    tower = ROOT_TOWERS[q][0]
    psi = module_from_text(psi_text, tower)
    a = poly_from_text(a_text, tower)
    red = reduce_at(psi, poly_from_text(p_text, tower))
    assert _splitting_degree_oracle(red, a) == s
    assert torsion_basis_reduced(red, a).splitting_s == s


@st.composite
def splitting_case(draw):
    """(psi, p, a): q in {2, 3, 4, 5, 9}, rank 2..3, deg p <= 2, and a monic a
    of degree <= 2 coprime to p with q^(r deg a) <= 729 (squares included)."""
    q = draw(st.sampled_from(sorted(ROOT_TOWERS)))
    rank = draw(st.integers(min_value=2, max_value=3))
    deg_a = draw(st.integers(min_value=1, max_value=2).filter(lambda d: q ** (rank * d) <= 729))
    tower = ROOT_TOWERS[q][0]
    F = tower.base_field
    psi, p = draw(module_and_prime(tower, rank, draw(st.integers(min_value=1, max_value=2))))
    a = draw(
        st.lists(elem(F), min_size=deg_a, max_size=deg_a)
        .map(lambda cs: Poly(F, cs + [F.one_elem()]))
        .filter(lambda f: poly_gcd(f, p).degree() == 0)
    )
    return psi, p, a


def test_splitting_degree_matches_oracle(deadline):
    """The order of the motive Frobenius mod a equals the least s with
    x^(|F_p|^s) = x mod psibar_a(x)."""

    @given(case=splitting_case())
    @settings(max_examples=50, deadline=None)
    def check(case):
        psi, p, a = case
        red = reduce_at(psi, p)
        # an element of GL(psi[a]) has order below |psi[a]|
        limit = red.source.tower.q ** (red.rank * a.degree())
        assert _splitting_degree(red, a, limit) == _splitting_degree_oracle(red, a)

    with deadline(120):
        check()


def _weil_at_t(red):
    """c_0 .. c_(r-1) of det(x - Pi), with c_1 .. c_(r-1) read at T = t.

    Every R_k of the motive recurrence with k >= 1 starts with 0 at T = t,
    so det(x - Pi(t)) = x det(x - B) for the block B of Pi(t) on rows and
    columns 1..r-1, and c_(r-s)(t) = (-1)^s (sum of the s-minors of B).  By
    the Riemann hypothesis deg c_j < n for j >= 1, so c_j is the lift of
    c_j(t): one solve against the F_q basis y^u t^j of F_p.  c_0 =
    (-1)^r det Pi over F_p[T], projected to F_q[T]."""
    tower, ctx, r, n = red.source.tower, red.ctx, red.rank, red.deg_p
    base, e, p0, t = tower.base_field, tower.base_degree, ctx.char, red.residue.t_image
    pi = motive_frobenius(red)
    det = ring_det(pi)
    coeffs = [(-det if r % 2 else det).map_coeffs(lambda x: tower.project(x, base), base)]
    y = tower.embed(tower.gen(base), ctx)
    basis = np.stack([(y**u * t**j).vec() for j in range(n) for u in range(e)], axis=1)
    block = [[x.eval(t) for x in row[1:]] for row in pi[1:]]
    for s in range(r - 1, 0, -1):
        minors = sum((ring_det([[block[u][v] for v in c] for u in c])
                      for c in combinations(range(r - 1), s)), ctx.zero_elem())
        value = -minors if s % 2 else minors
        lifted = linalg.solve(basis, value.vec()[:, None], p0)[:, 0]
        coeffs.append(Poly(base, base.array_elems(lifted.reshape(n, e))))
    return coeffs


def _assert_matches_reading_at_t(red):
    weil = weil_motive(red)
    assert list(weil.coeffs) == _weil_at_t(red)
    assert weil.coeffs[0] == red.prime.scale(weil.unit)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_weil_motive_matches_motive_minor_sum(q):
    """The minor sums of Pi over F_p[T] equal the reading at T = t, lifted
    by a solve, in ranks 1..5, deg p below r - 1 included."""
    tower = ROOT_TOWERS[q][0]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def check(data):
        rank = data.draw(st.integers(min_value=1, max_value=5))
        deg_p = data.draw(st.integers(min_value=1, max_value=4 if rank <= 3 else 2))
        psi, p = data.draw(module_and_prime(tower, rank, deg_p))
        _assert_matches_reading_at_t(reduce_at(psi, p))

    check()


@pytest.mark.parametrize(
    "q,prime,psi",
    [
        pytest.param(3, "T^10+2*T^6+2*T^5+2*T^4+T+2", psi, id=psi)
        for psi in ("T+1*t+1*t^2", "T+1*t+T*t^2+1*t^3")
    ]
    + [
        pytest.param(4, "T^8+T^3+T+z", psi, id=f"F4^8-{psi}")
        for psi in ("T+1*t+1*t^2", "T+1*t+T*t^2+1*t^3")
    ],
)
def test_weil_motive_matches_motive_minor_sum_above_table_limit(q, prime, psi):
    """F_(3^10), the prime-q residue field's own modulus, and F_(4^8) = F_(2^16),
    whose T-image ``polys.lex_min_root`` finds, compute on coordinates, not
    on logs."""
    tower = FieldTower(q, max_degree=64)
    red = reduce_at(module_from_text(psi, tower), poly_from_text(prime, tower))
    assert red.ctx.order > TABLE_LIMIT
    _assert_matches_reading_at_t(red)


def test_weil_motive_raises_on_a_wrong_projection(monkeypatch):
    """A projection to A off by T^(n-1) breaks the degree bound or the skew
    identity."""
    from drinfeld import invariants

    tower = FieldTower(3, max_degree=64)
    red = reduce_at(module_from_text("T+1*t+1*t^2", tower), poly_from_text("T^3+2*T+1", tower))
    project = invariants._project

    def wrong(red_, rows):
        return project(red_, rows) + powint(Poly.x(tower.base_field), red_.deg_p - 1)

    monkeypatch.setattr(invariants, "_project", wrong)
    with pytest.raises(DrinfeldError):
        weil_motive(red)


# (tower, field degree over the prime field): F_(2^16), F_(3^12), F_(5^4),
# F_(4^5), F_(9^3); the first two are above the table limit
POWMOD_FIELDS = {
    "F2^16": (TOWER2, 16),
    "F3^12": (TOWER3, 12),
    "F5^4": (TOWER5, 4),
    "F4^5": (ROOT_TOWERS[4][0], 10),
    "F9^3": (TOWER9, 6),
}


@st.composite
def powmod_case(draw, ctx, degrees=(1, 10)):
    """(base, e, g): g of degree in ``degrees``, monic or not; base of degree
    up to 2 deg g; e in {0, 1, 2} or below |F|^2."""
    k = draw(st.integers(min_value=degrees[0], max_value=degrees[1]))
    lead = draw(elem(ctx).filter(lambda c: not c.is_zero()))
    g = Poly(ctx, draw(st.lists(elem(ctx), min_size=k, max_size=k)) + [lead])
    base = draw(poly(ctx, max_len=2 * k + 1))
    e = draw(st.sampled_from([0, 1, 2]) | st.integers(min_value=0, max_value=ctx.order**2 - 1))
    return base, e, g


@pytest.mark.parametrize("name", list(POWMOD_FIELDS))
def test_packed_powmod_matches_schoolbook(name):
    tower, degree = POWMOD_FIELDS[name]
    ctx = tower.field(degree)

    @given(case=powmod_case(ctx))
    @settings(max_examples=25, deadline=None)
    def check(case):
        base, e, g = case
        assert powmod(base, e, g) == schoolbook_powmod(base, e, g)

    check()


# (tower, degree of K, degree of F) over the prime field: f lies over K and
# the step acts on F[x]/(f).  K = F_4 in F_(4^5) and F_(4^8) is not prime,
# so the images of its generator enter the step.
STEP_FIELDS = {
    "F2^16": (TOWER2, 1, 16),
    "F4^5": (ROOT_TOWERS[4][0], 2, 10),
    "F3^10": (TOWER3, 1, 10),
    "F4^8": (ROOT_TOWERS[4][0], 2, 16),
    "F16381^2": (EUCLID_FIELDS["F16381^2"][0], 1, 2),
}


@pytest.mark.parametrize("name", list(STEP_FIELDS))
def test_frobenius_step_trace_matches_schoolbook(name):
    """t + t^p + ... + t^(p^(n-1)) mod f from the prime-linear Frobenius
    step, against schoolbook powers t^(p^i) mod f over F."""
    tower, k_degree, degree = STEP_FIELDS[name]
    K, F = tower.field(k_degree), tower.field(degree)

    def embed(c):
        return tower.embed(c, F)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def check(data):
        m = data.draw(st.integers(min_value=1, max_value=5))
        f = Poly(K, data.draw(st.lists(elem(K), min_size=m, max_size=m)) + [K.one_elem()])
        t = data.draw(poly(F, max_len=m))
        n = data.draw(st.integers(min_value=1, max_value=degree))
        f_F = f.map_coeffs(embed, F)
        expected = Poly.zero(F)
        for i in range(n):
            expected = expected + schoolbook_powmod(t, F.char**i, f_F)
        w = np.zeros((m, degree), dtype=np.int64)
        w[: len(t.coeffs)] = F.coeff_array(t.coeffs)
        trace = FrobeniusStep(f).over(F, embed).trace(w, n)
        assert Poly(F, F.array_elems(trace)) == expected

    check()


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16381])
def test_frobenius_step_certificate_matches_powmod(q):
    """The step applied m [K : F_p] times to x decides f | x^(s^m) - x for
    f of degree m over K = F_s, as one powmod does, on irreducible f and on
    products with repeated or foreign factors."""
    K = (ROOT_TOWERS[q][0] if q in ROOT_TOWERS else EUCLID_FIELDS["F16381^2"][0]).base_field
    seen = set()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def check(data):
        f = Poly.one(K)
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            k = data.draw(st.integers(min_value=1, max_value=3))
            f = f * Poly(K, data.draw(st.lists(elem(K), min_size=k, max_size=k)) + [K.one_elem()])
        m = f.degree()
        x = Poly.x(K)
        expected = powmod(x, K.order**m, f) == x % f
        assert FrobeniusStep(f).fixes_x(m * K.degree) == expected
        seen.add(expected)
        if q < 16381:
            g = data.draw(st.sampled_from(_irreducibles(q, min(m, 3))))
            assert FrobeniusStep(g).fixes_x(g.degree() * K.degree)

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factorize_matches_sympy(p):
    """Complete factorizations over prime fields against sympy's gf_factor,
    an independent route to the equal-degree split."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    F = FieldTower(p).base_field

    def to_sympy(f):
        return [c.coords[0] for c in reversed(f.coeffs)]

    @st.composite
    def polys_to_degree_10(draw):
        """A unit times monic factors with multiplicities, or a random f."""
        if draw(st.booleans()):
            return draw(poly(F, max_len=11))
        f = Poly.constant(draw(elem(F).filter(lambda c: not c.is_zero())))
        while True:
            k = draw(st.integers(min_value=1, max_value=4))
            mult = draw(st.sampled_from([1, 2, 3, p]))
            if f.degree() + k * mult > 10:
                return f
            tail = draw(st.lists(elem(F), min_size=k, max_size=k))
            f = f * Poly(F, tail + [F.one_elem()]) ** mult

    @given(f=polys_to_degree_10())
    @settings(max_examples=40, deadline=None)
    def check(f):
        if f.is_zero():
            return
        fac = factorize(f)
        lead, factors = gf_factor(to_sympy(f), p, ZZ)
        assert fac.unit.coords[0] == lead
        assert sorted((to_sympy(g), m) for g, m in fac.factors) == sorted(factors)

    check()


@pytest.mark.parametrize(
    "p,degrees",
    [(2, (1, 10)), (3, (1, 10)), (5, (1, 10)), (7, (1, 10)), (16381, (1, 16)), (16381, (17, 20))],
)
def test_packed_powmod_matches_sympy(p, degrees):
    """Prime fields against sympy's gf_pow_mod.  At p = 16381 products of
    remainders of length 16 just fit 4-byte slots; length 17 needs 8 bytes."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    from drinfeld.fields import _slot_dtype

    assert _slot_dtype(16 * 16380**2).itemsize == 4
    assert _slot_dtype(17 * 16380**2).itemsize == 8
    F = FieldTower(p).base_field

    def to_sympy(f):
        return [c.coords[0] for c in reversed(f.coeffs)]

    @given(case=powmod_case(F, degrees))
    @settings(max_examples=40, deadline=None)
    def check(case):
        base, e, g = case
        assert to_sympy(powmod(base, e, g)) == gf_pow_mod(to_sympy(base), e, to_sympy(g), p, ZZ)

    check()


KERNEL_FIELDS = {q: FieldTower(q, max_degree=64).base_field for q in (2, 3, 4, 9, 25)}


def _prime_blocks(ctx, rows):
    """Prime matrix of an F_q matrix on e-block coordinates."""
    return np.block([[ctx.mult_matrix(c.coords) for c in row] for row in rows])


def _block_diag(ctx, *mats):
    n = sum(len(m) for m in mats)
    out = [[ctx.zero_elem()] * n for _ in range(n)]
    at = 0
    for m in mats:
        for i, row in enumerate(m):
            out[at + i][at : at + len(row)] = row
        at += len(m)
    return out


def _companion(ctx, low):
    """The companion matrix of x^k + low[k-1] x^(k-1) + ... + low[0]:
    e_i -> e_(i+1) for i < k-1, and e_(k-1) -> -(low[0] e_0 + ... )."""
    k = len(low)
    rows = [[ctx.zero_elem()] * k for _ in range(k)]
    for i in range(1, k):
        rows[i][i - 1] = ctx.one_elem()
    for i in range(k):
        rows[i][k - 1] = -low[i]
    return rows


@st.composite
def fq_operator(draw, ctx):
    """A prime block matrix of an F_q-linear map on F_q^n, n <= 6: random, or
    conjugate to diag(A, A, B) or to diag([[A, I], [0, A]], A, B), so that
    repeated factors and non-cyclic modules come up at every q; or diag(A, B)
    itself, where the first unit vector lies in the invariant subspace of A
    and so generates only when the module is cyclic and B is empty."""

    def mat(k):
        return [[draw(elem(ctx)) for _ in range(k)] for _ in range(k)]

    kind = draw(st.sampled_from(["random", "repeated", "jordan", "split"]))
    if kind == "split":
        a = mat(draw(st.integers(1, 5)))
        return _prime_blocks(ctx, _block_diag(ctx, a, mat(draw(st.integers(0, 6 - len(a))))))
    if kind == "random":
        rows = mat(draw(st.integers(1, 6)))
    elif kind == "repeated":
        a = mat(draw(st.integers(1, 2)))
        rows = _block_diag(ctx, a, a, mat(draw(st.integers(0, 6 - 2 * len(a)))))
    else:
        a = mat(1)
        eye = [[ctx.one_elem()]]
        jordan = [a[0] + eye[0], [ctx.zero_elem()] + a[0]]
        rows = _block_diag(ctx, jordan, a, mat(draw(st.integers(0, 3))))
    mt = _prime_blocks(ctx, rows)
    p0 = ctx.char
    conj = _prime_blocks(ctx, mat(len(rows)))
    inv = linalg.solve(conj, np.eye(len(mt), dtype=np.int64), p0)
    if inv is not None:
        mt = (((conj @ mt) % p0) @ inv) % p0
    return mt


def _block_frame(ctx, dim):
    """The F_q action, first start and units of e-block coordinates on
    F_q^(dim/e), as ``fq_invariant_factors`` takes them: kron(I, M(y^t)),
    the first block unit, and all block units; the action and the units as
    callables."""
    e = ctx.degree
    eye = np.eye(dim // e, dtype=np.int64)
    act = np.array([np.kron(eye, x) for x in ctx.mult_matrices(np.eye(e, dtype=np.int64))])
    units = list(np.eye(dim, dtype=np.int64)[::e])
    return lambda: act, units[0], lambda: units


def _generates(mt, v, ctx):
    """Whether the F_q-Krylov space of v under the prime block matrix mt is
    everything."""
    e, p0 = ctx.degree, ctx.char
    my = np.kron(np.eye(len(mt) // e, dtype=np.int64), ctx.mult_matrix(ctx.x_coords()))
    vecs = linalg.orbits(linalg.orbits([v], mt, len(mt) // e, p0), my, e, p0)
    return len(linalg.rref(np.array(vecs), p0)[1]) == len(mt)


@pytest.mark.parametrize("q", sorted(KERNEL_FIELDS))
def test_fq_invariant_factors_match_smith_form(q):
    """The Krylov and kernel-rank invariant factors equal the nonunit Smith
    invariant factors of T*I - M over F_q[T].  Besides the drawn matrices,
    diag(C(T^2 + T), C(T^2 + T + 1)) of companion matrices is cyclic (the two
    characteristic polynomials are coprime at every q), but neither start of
    the cyclic case generates it: the first unit vector lies in the first
    block, and the sum of the unit vectors is 1 + T there, which shares
    T + 1 with T^2 + T.  diag(C(T^2 + T + 1), C(T)) is generated by the sum
    but not by the first unit vector."""
    ctx = KERNEL_FIELDS[q]
    e = ctx.degree
    T = Poly.x(ctx)
    zero, one = ctx.zero_elem(), ctx.one_elem()
    f, g, h = _companion(ctx, [zero, one]), _companion(ctx, [one, one]), _companion(ctx, [zero])
    cyclic = [
        ((f, g), False, (T * T + T) * (T * T + T + Poly.one(ctx))),
        ((g, h), True, (T * T + T + Poly.one(ctx)) * T),
    ]
    for blocks, by_units, chi in cyclic:
        mt = _prime_blocks(ctx, _block_diag(ctx, *blocks))
        u0, units = np.zeros((2, len(mt)), dtype=np.int64)
        u0[0] = units[::e] = 1
        assert not _generates(mt, u0, ctx)
        assert _generates(mt, units, ctx) is by_units
        assert [d.coeffs for d in fq_invariant_factors(mt, ctx, *_block_frame(ctx, len(mt)))] == [
            chi.coeffs
        ]

    @given(mt=fq_operator(ctx))
    @settings(max_examples=40, deadline=None)
    def check(mt):
        n = len(mt) // e
        entries = [
            [FFElem(ctx, tuple(int(c) for c in mt[i * e : (i + 1) * e, j * e])) for j in range(n)]
            for i in range(n)
        ]
        xmat = [
            [(T if i == j else Poly.zero(ctx)) - Poly.constant(entries[i][j]) for j in range(n)]
            for i in range(n)
        ]
        smith = [f for f in smith_normal_form(xmat) if f.degree() >= 1]
        got = fq_invariant_factors(mt, ctx, *_block_frame(ctx, len(mt)))
        assert [f.coeffs for f in got] == [f.coeffs for f in smith]

    check()


def _invertible(rng, dim, p0):
    """A uniformly random invertible dim x dim prime matrix and its inverse."""
    while True:
        g = rng.integers(0, p0, (dim, dim))
        inv = linalg.solve(g, np.eye(dim, dtype=np.int64), p0)
        if inv is not None:
            return g, inv


def _oracle_in_frame(mt, ctx, action, start, units, monkeypatch):
    """``fq_invariant_factors`` and the number of its ``rref`` calls."""
    calls, rref = [0], linalg.rref

    def counted(*args, **kwargs):
        calls[0] += 1
        return rref(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", counted)
    factors = [f.coeffs for f in fq_invariant_factors(mt, ctx, action, start, units)]
    monkeypatch.setattr(linalg, "rref", rref)
    return factors, calls[0]


@pytest.mark.parametrize("q", sorted(KERNEL_FIELDS))
def test_fq_invariant_factors_do_not_depend_on_coordinates(q, monkeypatch):
    """The operator, the F_q action, the start and the units carried to new
    prime coordinates by a random invertible G give the same factors with
    the same number of ``rref`` calls: every elimination sees the same row
    space.  diag(C(T^2 + T), C(T^2 + T + 1)) is one case where the first
    start does not generate, so the walk takes the units."""
    ctx = KERNEL_FIELDS[q]
    p0 = ctx.char
    zero, one = ctx.zero_elem(), ctx.one_elem()
    fixed = _prime_blocks(ctx, _block_diag(ctx, _companion(ctx, [zero, one]), _companion(ctx, [one, one])))

    def compare(mt, seed):
        action, start, units = _block_frame(ctx, len(mt))
        g, inv = _invertible(np.random.default_rng(seed), len(mt), p0)

        def moved(x):
            return (g @ x) % p0

        want = _oracle_in_frame(mt, ctx, action, start, units, monkeypatch)
        got = _oracle_in_frame(
            (moved(mt) @ inv) % p0, ctx, lambda: np.array([(moved(x) @ inv) % p0 for x in action()]),
            moved(start), lambda: [moved(u) for u in units()], monkeypatch,
        )
        assert got == want
        return want

    assert not _generates(fixed, _block_frame(ctx, len(fixed))[1], ctx)
    assert compare(fixed, 0)[1] > 1

    @given(mt=fq_operator(ctx), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def check(mt, seed):
        compare(mt, seed)

    check()


@pytest.mark.parametrize("q", sorted(KERNEL_FIELDS))
def test_poly_at_matches_kron_horner(q):
    """``_poly_at`` on the block action kron(I, M(y^t)) equals Horner with
    kron(I, M(c)) added for every coefficient c, at e = 1 (q = 2, 3) and at
    e = 2 (q = 4, 9, 25)."""
    ctx = KERNEL_FIELDS[q]
    p0 = ctx.char

    @given(mt=fq_operator(ctx), d=poly(ctx))
    @settings(max_examples=30, deadline=None)
    def check(mt, d):
        eye = np.eye(len(mt) // ctx.degree, dtype=np.int64)
        want = np.zeros_like(mt)
        for c in reversed(d.coeffs):
            want = (mt @ want + np.kron(eye, ctx.mult_matrix(c.coords))) % p0
        assert _poly_at(d, mt, _block_frame(ctx, len(mt))[0]()).tolist() == want.tolist()

    check()


@st.composite
def reduced_module(draw, tower, rank, deg_p):
    """The reduction of psi_T = T + g_1 tau + ... + g_r tau^r (deg g_i <= 1)
    at the first monic prime of degree deg_p with good reduction, counting up
    from a drawn code."""
    F = tower.base_field
    q = tower.q
    gs = [draw(poly(F, max_len=2)) for _ in range(rank - 1)]
    gs.append(draw(poly(F, max_len=2).filter(lambda g: not g.is_zero())))
    start = draw(st.integers(0, q**deg_p - 1))
    for k in range(q**deg_p):
        code = (start + k) % q**deg_p
        p = Poly(F, [F.dec_elem(code // q**i % q) for i in range(deg_p)] + [F.one_elem()])
        if is_irreducible(p) and not (gs[-1] % p).is_zero():
            return reduce_at(DrinfeldModule(tower, gs), p)
    assume(False)


TOWERS_BY_Q = {2: TOWER2, 3: TOWER3, 4: FieldTower(4, max_degree=64), 5: TOWER5, 9: TOWER9}
# (q, deg p range): residue fields with log tables, and F_(3^10), F_(3^11)
# above TABLE_LIMIT (2^14)
ARRAY_CASES = [(2, 1, 5), (3, 1, 4), (4, 1, 3), (5, 1, 3), (9, 1, 2), (3, 10, 11)]


@pytest.mark.parametrize("q,lo,hi", ARRAY_CASES)
def test_array_product_matches_skew_oracle(q, lo, hi):
    """Left multiplication by psibar_T (and by any f) through its blocks
    K_j equals the SkewPoly product, and the array psibar_a equals the
    SkewPoly Horner route, in ranks 2..4."""
    tower = TOWERS_BY_Q[q]

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def check(data):
        rank = data.draw(st.integers(2, 4))
        red = data.draw(reduced_module(tower, rank, data.draw(st.integers(lo, hi))))
        ctx, p0 = red.ctx, tower.char
        x = data.draw(skew(ctx, max_deg=5))
        product = left_mul(red.psibar_blocks, x.array(), p0)
        assert np.array_equal(product, (red.psibar_T * x).array())
        f = data.draw(skew(ctx, max_deg=3))
        product = left_mul(left_blocks(ctx, f.array()), x.array(), p0)
        assert np.array_equal(product, (f * x).array())
        a = data.draw(poly(tower.base_field, max_len=4))
        acc = SkewPoly.zero(ctx)  # the SkewPoly Horner route
        for c in reversed(a.coeffs):
            acc = acc * red.psibar_T + SkewPoly(ctx, (red.tower_embed_const(c),))
        assert np.array_equal(red.psibar_array(a), acc.array())

    check()
