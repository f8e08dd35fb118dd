"""Table-field elements in discrete logs against the coordinate route.

On a field with log tables every ``FFElem`` operation, ``frobenius_power``,
``embed`` and ``project`` is a log-list lookup.  The oracle is the
coordinate/matrix route the fields above the table limit take: the
Toeplitz-row product and the ``linalg.solve`` inverse of ``_FieldCtx``, the
p-power matrix and the embedding matrix with its left inverse.  Small fields are checked
exhaustively, bigger table fields by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import fields
from drinfeld.errors import RingMismatchError, TowerMembershipError, ZeroInputError
from drinfeld.fields import TABLE_LIMIT, FFElem, FieldTower, _FieldCtx

TOWER2 = FieldTower(2, max_degree=64)
TOWER3 = FieldTower(3, max_degree=64)
TOWER4 = FieldTower(4, max_degree=64)
TOWER5 = FieldTower(5, max_degree=64)

# exhaustive fields: (tower, degree over the prime field)
SMALL = {
    "F2": (TOWER2, 1),
    "F4": (TOWER2, 2),
    "F5": (TOWER5, 1),
    "F8": (TOWER2, 3),
    "F9": (TOWER3, 2),
    "F16_over_F4": (TOWER4, 4),
}
# (tower, subfield degree, field degree) for the embedding checks
SMALL_PAIRS = [(TOWER2, 1, 2), (TOWER2, 1, 3), (TOWER2, 2, 4), (TOWER3, 1, 2), (TOWER3, 2, 4),
               (TOWER4, 2, 4), (TOWER5, 1, 2)]
BIG = {"F5^4": (TOWER5, 4), "F2^10": (TOWER2, 10), "F2^14": (TOWER2, 14)}
BIG_PAIRS = [(TOWER5, 2, 4), (TOWER5, 1, 4), (TOWER2, 5, 10), (TOWER2, 2, 10), (TOWER2, 7, 14),
             (TOWER2, 2, 14)]


def pair_id(pair):
    tower, d_sub, d_sup = pair
    return f"F{tower.char}^{d_sub}-in-F{tower.char}^{d_sup}"


def fresh(x: FFElem) -> FFElem:
    """x rebuilt from its coordinates, with no log yet."""
    return FFElem(x.ctx, x.coords)


# -- the coordinate route --------------------------------------------------------


def coord_mul(a, b):
    return a.ctx.mul(a.coords, b.coords)


def coord_pow(a, k):
    return a.ctx.pow(a.coords, k)


def coord_frob(tower, x, k):
    ctx = x.ctx
    m = ctx.degree // tower.base_degree
    mat = ctx.frob_p_matrix((k % m) * tower.base_degree)
    return tuple(int(c) for c in mat @ x.vec() % ctx.char)


def coord_embed(tower, x, sup):
    return tower.embedding(x.ctx, sup).apply(x, sup).coords


def coord_project(tower, x, sub):
    """The subfield coordinates of x, or None when x is not in sub."""
    emb = tower.embedding(sub, x.ctx)
    y = emb.left_inverse @ x.vec() % tower.char
    return tuple(int(c) for c in y) if np.array_equal(emb.matrix @ y % tower.char, x.vec()) else None


# -- checks shared by the exhaustive and the random tests ---------------------------


def check_pair(a, b):
    ctx = a.ctx
    for x, y in ((a, b), (fresh(a), fresh(b))):
        assert (x + y).coords == ctx.add(a.coords, b.coords)
        assert (x - y).coords == ctx.sub(a.coords, b.coords)
        assert (x * y).coords == coord_mul(a, b)
        if b:
            assert (x / y).coords == ctx.mul(a.coords, ctx.inv(b.coords))
        else:
            with pytest.raises(ZeroInputError):
                x / y


def check_single(tower, a, ks):
    ctx = a.ctx
    m = ctx.degree // tower.base_degree
    assert (-a).coords == ctx.neg(a.coords) == (-fresh(a)).coords
    assert (a + (-a)).is_zero() and (a - a).is_zero()
    if a:
        assert a.inv().coords == ctx.inv(a.coords) == fresh(a).inv().coords
        assert (a * a.inv()).is_one()
    else:
        with pytest.raises(ZeroInputError):
            a.inv()
    for k in ks:
        if a or k >= 0:
            assert (a**k).coords == coord_pow(a, k) == (fresh(a) ** k).coords
        else:
            with pytest.raises(ZeroInputError):
                a**k
    for k in (0, 1, -1, m, m + 1, -m - 1, 3 * m + 2):
        want = coord_frob(tower, a, k)
        assert a.frob(k).coords == want == tower.frobenius_power(fresh(a), k).coords


def check_embed_project(tower, x, sub):
    """x in the bigger field: project to sub, and back by embed."""
    want = coord_project(tower, x, sub)
    if want is None:
        with pytest.raises(TowerMembershipError):
            tower.project(x, sub)
        with pytest.raises(TowerMembershipError):
            tower.project(fresh(x), sub)
        return
    y = tower.project(x, sub)
    assert y.ctx is sub and y.coords == want == tower.project(fresh(x), sub).coords
    assert tower.embed(y, x.ctx) == x
    assert tower.embed(fresh(y), x.ctx).coords == coord_embed(tower, y, x.ctx)


# -- exhaustive on small fields -------------------------------------------------------


@pytest.mark.parametrize("name", list(SMALL))
def test_every_pair_and_element_matches_coordinates(name):
    tower, d = SMALL[name]
    ctx = tower.field(d)
    els = list(ctx.elements())
    for a in els:
        for b in els:
            check_pair(a, b)
        check_single(tower, a, (0, 1, 2, -1, -3, ctx.order, 2 * ctx.order + 1))


@pytest.mark.parametrize("tower,d_sub,d_sup", SMALL_PAIRS, ids=[pair_id(p) for p in SMALL_PAIRS])
def test_every_element_embeds_and_projects(tower, d_sub, d_sup):
    sub, sup = tower.field(d_sub), tower.field(d_sup)
    for a in sub.elements():
        assert tower.embed(a, sup).coords == coord_embed(tower, a, sup)
    inside = 0
    for x in sup.elements():
        check_embed_project(tower, x, sub)
        inside += coord_project(tower, x, sub) is not None
    assert inside == sub.order


def test_zero_one_and_characteristic_two():
    F8 = TOWER2.field(3)
    zero, one = F8.zero_elem(), F8.one_elem()
    assert zero is TOWER2.zero(F8) and one is TOWER2.one(F8)
    assert zero.is_zero() and one.is_one()
    for a in F8.elements():
        assert -a == a and (a + a).is_zero() and a - a is zero
        assert a + zero == a == zero + a and (a * zero) is zero
    F9 = TOWER3.field(2)
    for a in F9.elements():
        assert (a + (-a)) is F9.zero_elem()
        assert -a != a or a.is_zero()


def test_results_are_the_shared_elements():
    F9 = TOWER3.field(2)
    lists = F9._log_lists()
    els = [x for x in F9.elements() if x]
    shared = {id(e) for e in lists.elems}
    for a in els:
        for b in els:
            for c in (a * b, a + b, a - b, a / b):
                assert id(c) in shared or c is F9.zero_elem()
        assert lists.elems[a.log] == a and fresh(a).log is None


# -- random elements of the bigger table fields -----------------------------------------


def elem(ctx):
    """Element codes with 0 and 1 drawn often."""
    codes = st.one_of(st.sampled_from([0, 1]), st.integers(min_value=0, max_value=ctx.order - 1))
    return codes.map(ctx.dec_elem)


@pytest.mark.parametrize("name", list(BIG))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_operations_match_coordinates(name, data):
    tower, d = BIG[name]
    ctx = tower.field(d)
    a, b = data.draw(elem(ctx)), data.draw(elem(ctx))
    check_pair(a, b)
    check_single(tower, a, (0, 2, -1, -7, data.draw(st.integers(-10**6, 10**6))))


@pytest.mark.parametrize("tower,d_sub,d_sup", BIG_PAIRS, ids=[pair_id(p) for p in BIG_PAIRS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_embed_and_project(tower, d_sub, d_sup, data):
    sub, sup = tower.field(d_sub), tower.field(d_sup)
    a = data.draw(elem(sub))
    assert tower.embed(a, sup).coords == coord_embed(tower, a, sup)
    check_embed_project(tower, tower.embed(a, sup), sub)  # in the subfield
    check_embed_project(tower, data.draw(elem(sup)), sub)  # mostly outside it


def test_large_field_keeps_the_matrix_route():
    """Above the table limit no log lists exist, and embed and project of a
    table-field element still go through the embedding matrix."""
    sub, sup = TOWER3.field(2), TOWER3.field(10)
    assert sup.order > TABLE_LIMIT and sup._log_lists() is None
    for a in sub.elements():
        x = TOWER3.embed(a, sup)
        assert x.log is None and x.coords == coord_embed(TOWER3, a, sup)
        assert TOWER3.project(x, sub) == a
    with pytest.raises(TowerMembershipError):
        TOWER3.project(TOWER3.gen(sup), sub)


# -- the route itself ----------------------------------------------------------------


def test_mixed_fields_raise():
    F4, F8 = TOWER2.field(2), TOWER2.field(3)
    a, b = TOWER2.gen(F4), TOWER2.gen(F8)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(RingMismatchError):
            op()
    # the same field from another tower combines
    other = FieldTower(2).field(2)
    c = FFElem(other, a.coords)
    assert (a * c).coords == coord_mul(a, a) and (c + a).is_zero()


def test_tower_builds_no_log_lists():
    for q in (2, 5, 9, 16, 16384):
        tower = FieldTower(q)
        ctx = tower.base_field
        assert ctx._logs is None
        ctx.zero_elem(), ctx.one_elem(), tower.zero(), tower.one()
        assert ctx._logs is None
    ext = FieldTower(2).field(14)
    assert ext._logs is None


def test_table_field_route_makes_no_numpy_or_code_call(monkeypatch):
    tower = FieldTower(5)
    sub, sup = tower.field(2), tower.field(4)
    a, b = tower.gen(sup), tower.gen(sup) + tower.one(sup)
    c = tower.gen(sub)
    tower.embed(c, sup), tower.project(tower.embed(c, sup), sub)  # build the lists

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} on the log route")

    def no_code(*args):
        raise AssertionError("enc/dec on the log route")

    monkeypatch.setattr(fields, "np", NoNumpy())
    monkeypatch.setattr(_FieldCtx, "enc", no_code)
    monkeypatch.setattr(_FieldCtx, "dec", no_code)
    x, y = fresh(a), fresh(b)
    out = [x + y, x - y, -x, x * y, x / y, x.inv(), x**-3, x.frob(1), tower.frobenius_power(y, -1)]
    out += [tower.embed(fresh(c), sup), tower.project(tower.embed(c, sup), sub)]
    with pytest.raises(TowerMembershipError):
        tower.project(x, sub)
    assert all(isinstance(e, FFElem) for e in out)
