import numpy as np
import pytest

from drinfeld.errors import ResourceLimitError, TowerMembershipError, ZeroInputError
from drinfeld.fields import FFElem, FieldTower, lex_irreducible


def test_make_extension_identity(tower3):
    F3 = tower3.base_field
    assert tower3.make_extension(F3, 1) is F3


def test_make_extension_deterministic_modulus(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    assert F9.fid.modulus == (1, 0, 1)  # x^2 + 1 is the lex-first irreducible
    again = tower3.make_extension(tower3.base_field, 2)
    assert again.fid == F9.fid


def test_extension_of_extension_embedding_is_hom(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    F36 = tower3.make_extension(F9, 3)
    assert F36.degree == 6
    # ring-homomorphism check on all of F_9 (exhaustive multiplication table)
    els = list(F9.elements())
    for a in els:
        for b in els:
            ea, eb = tower3.embed(a, F36), tower3.embed(b, F36)
            assert tower3.embed(a * b, F36) == ea * eb
            assert tower3.embed(a + b, F36) == ea + eb


def test_degree_cap():
    small = FieldTower(3, max_degree=4)
    with pytest.raises(ResourceLimitError):
        small.field(5)


def test_frobenius_fixes_base(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    for c in tower3.base_field.elements():
        emb = tower3.embed(c, F9)
        assert tower3.frobenius_power(emb, 1) == emb
        assert tower3.frobenius_power(c, 5) == c


def test_frobenius_identity_power(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    z = tower3.gen(F9)
    assert tower3.frobenius_power(z, 0) == z
    assert tower3.frobenius_power(z, 1) == z**3
    assert tower3.frobenius_power(tower3.frobenius_power(z, 1), 1) == z


def test_frobenius_fixed_set_is_base_field(tower3):
    """Exhaustive over F_{3^6}: fixed points of x -> x^q are the embedded F_3."""
    F36 = tower3.field(6)
    fixed = [x for x in F36.elements() if tower3.frobenius_power(x, 1) == x]
    assert len(fixed) == 3
    embedded = {tower3.embed(c, F36) for c in tower3.base_field.elements()}
    assert set(fixed) == embedded


def test_norm_examples(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    one9 = tower3.one(F9)
    assert tower3.norm_to_base(one9) == tower3.one()
    assert tower3.norm_to_base(tower3.zero(F9)) == tower3.zero()
    z = tower3.gen(F9)
    n = tower3.norm_to_base(z)
    # z * z^3 = z^4, and the result is Frobenius-fixed
    assert tower3.embed(n, F9) == z * z**3


def test_norm_multiplicative_and_surjective(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    els = [x for x in F9.elements()]
    for a in els[:20]:
        for b in els[:20]:
            assert tower3.norm_to_base(a * b) == tower3.norm_to_base(a) * tower3.norm_to_base(b)
    norms = {tower3.norm_to_base(x).coords for x in els if not x.is_zero()}
    assert norms == {c.coords for c in tower3.base_field.elements() if not c.is_zero()}


def test_trace_additive(tower3):
    F9 = tower3.make_extension(tower3.base_field, 2)
    els = list(F9.elements())
    for a in els[:15]:
        for b in els[:15]:
            assert tower3.trace_to_base(a + b) == tower3.trace_to_base(a) + tower3.trace_to_base(b)


def test_embedding_coherence_chain(tower3):
    """F_3 in F_9 in F_81: composed embeddings equal the direct one."""
    import random

    F3 = tower3.base_field
    F9 = tower3.make_extension(F3, 2)
    F81 = tower3.make_extension(F9, 2)
    rng = random.Random(7)
    for _ in range(100):
        x = FFElem(F3, (rng.randrange(3),))
        via = tower3.embed(tower3.embed(x, F9), F81)
        assert via == tower3.embed(x, F81)
    # and on all of F_9
    for x in F9.elements():
        assert tower3.embed(x, F81) == tower3.embed(x, F81)


# (tower fixture, degree of sub, degree of sup) over the prime field
PROJECT_PAIRS = [
    ("tower3", 1, 6),
    ("tower3", 2, 6),
    ("tower3", 3, 12),
    ("tower2", 2, 10),
    ("tower2", 5, 20),
    ("tower9", 2, 6),
    ("tower25", 4, 8),
]


@pytest.mark.parametrize("tower,sub_deg,sup_deg", PROJECT_PAIRS)
def test_project_inverts_embed(request, tower, sub_deg, sup_deg):
    """project(embed(x)) = x, on all of a small subfield or 60 random elements."""
    import random

    tw = request.getfixturevalue(tower)
    sub, sup = tw.field(sub_deg), tw.field(sup_deg)
    rng = random.Random(sub_deg * 100 + sup_deg)
    els = (
        list(sub.elements())
        if tw.char**sub_deg <= 81
        else [FFElem(sub, tuple(rng.randrange(tw.char) for _ in range(sub_deg))) for _ in range(60)]
    )
    for x in els:
        y = tw.project(tw.embed(x, sup), sub)
        assert y.ctx is sub and y == x


@pytest.mark.parametrize("tower,sub_deg,sup_deg", PROJECT_PAIRS)
def test_project_outside_subfield_raises(request, tower, sub_deg, sup_deg):
    tw = request.getfixturevalue(tower)
    sub, sup = tw.field(sub_deg), tw.field(sup_deg)
    # x generates sup over the prime field, so it lies in no proper subfield
    with pytest.raises(TowerMembershipError):
        tw.project(tw.gen(sup), sub)


def test_project_accepts_exactly_the_subfield(tower3):
    """Of the 729 elements of F_{3^6}, the 9 of F_9 project to F_9, the rest raise."""
    F9, F36 = tower3.field(2), tower3.field(6)
    image = {tower3.embed(x, F36) for x in F9.elements()}
    for x in F36.elements():
        if x in image:
            assert tower3.embed(tower3.project(x, F9), F36) == x
        else:
            with pytest.raises(TowerMembershipError):
                tower3.project(x, F9)


def test_nonprime_base_tower(tower9):
    assert tower9.char == 3 and tower9.base_degree == 2
    F81 = tower9.make_extension(tower9.base_field, 2)
    z = tower9.gen(F81)
    # q-Frobenius has order 2 on a quadratic extension of F_9
    assert tower9.frobenius_power(z, 2) == z
    assert tower9.frobenius_power(z, 1) == z**9
    n = tower9.norm_to_base(z)
    assert n.ctx is tower9.base_field


def test_lex_irreducible_values():
    assert lex_irreducible(3, 1) == (0, 1)
    assert lex_irreducible(3, 2) == (1, 0, 1)
    assert lex_irreducible(2, 3) == (1, 1, 0, 1)  # T^3+T+1 precedes T^3+T^2+1


def test_inverse_of_zero_raises(tower3):
    with pytest.raises(ZeroInputError):
        tower3.zero().inv()


def test_big_field_arithmetic_consistency(tower3):
    """Vector-regime field (3^10) agrees with its own axioms."""
    K = tower3.field(10)
    x = tower3.gen(K)
    y = x**7 + tower3.one(K)
    assert (x * y) * y == x * (y * y)
    assert x * x.inv() == tower3.one(K)
    assert tower3.frobenius_power(x, 10) == x


def loop_mult_matrix(ctx, coords):
    """The matrix of y -> c*y column by column: c*y^j shifted up one place
    and reduced by x^d mod m at each step."""
    p, d = ctx.char, ctx.degree
    m = np.zeros((d, d), dtype=np.int64)
    cur = np.array(coords, dtype=np.int64)
    for j in range(d):
        m[:, j] = cur
        if j < d - 1:
            top = int(cur[d - 1])
            cur = np.concatenate([[0], cur[: d - 1]])
            if top:
                cur = (cur + top * ctx._red[0]) % p
    return m


# (q, degree over the prime field): F_2, F_5, F_(3^4), F_(2^14) with tables,
# F_(3^10) and F_(2^20) above the table limit
MULT_FIELDS = [(2, 1), (5, 1), (3, 4), (2, 14), (3, 10), (2, 20)]


@pytest.mark.parametrize("q,d", MULT_FIELDS)
def test_mult_matrix_matches_the_column_loop(q, d):
    ctx = FieldTower(q).field(d)
    rng = np.random.default_rng(d)
    cases = [ctx.zero_coords(), ctx.one_coords(), ctx.x_coords(), (q - 1,) * d]
    cases += [tuple(rng.integers(0, q, d).tolist()) for _ in range(20)]
    for c in cases:
        assert np.array_equal(ctx.mult_matrix(c), loop_mult_matrix(ctx, c))
        assert np.array_equal(ctx.mult_matrix(np.array(c)), loop_mult_matrix(ctx, c))


# coordinates of the text generator z of F_q (FFElem.coords, low first)
Z_COORDS = {
    4: (0, 1),
    9: (1, 1),
    25: (1, 1),
    27: (0, 1, 0),
    16384: (1, 1, 1) + (0,) * 11,
}


@pytest.mark.parametrize("q", sorted(Z_COORDS))
def test_z_generator_pinned(q):
    assert FieldTower(q).z_generator().coords == Z_COORDS[q]


def test_dlog_z_round_trip_at_largest_q(deadline):
    """z^dlog(x) = x on 300 elements of F_16384, and the text form of each
    element parses back to it."""
    from drinfeld.textio import fq_from_text, fq_to_text

    tower = FieldTower(16384)
    F = tower.base_field
    z = tower.z_generator()
    with deadline(10):
        assert tower.dlog_z(tower.one()) == 0 and tower.dlog_z(z) == 1
        for code in range(1, F.order, F.order // 300):
            x = FFElem(F, F.dec(code))
            j = tower.dlog_z(x)
            assert 0 <= j < F.order - 1
            assert z**j == x
            assert fq_from_text(fq_to_text(x, tower), tower) == x


@pytest.mark.parametrize("p,degrees", [(2, range(15, 21)), (3, range(9, 15)), (5, range(7, 9))])
def test_lex_irreducible_matches_a_factorization_search(p, degrees, monkeypatch):
    """The modulus search (small-factor sieve, then Rabin's test) picks the
    same moduli as a search in the same order that tests each candidate by
    its factorization."""
    from drinfeld import fields
    from drinfeld.polys import Poly, factorize

    monkeypatch.setattr(fields, "_LEX_CACHE", {})
    F = FieldTower(p).base_field
    for d in degrees:
        for code in range(p**d):
            tail = [code // p**i % p for i in range(d)]
            if not tail[0]:
                continue
            fac = factorize(Poly(F, [F.dec_elem(c) for c in tail + [1]])).factors
            if len(fac) == 1 and fac[0][1] == 1:
                break
        assert lex_irreducible(p, d) == tuple(tail + [1]), (p, d)
