"""Polynomials over table fields, whose coefficient loops run on elements
ruled by discrete logs, against two independent oracles: the coordinate-array
kernel of ``_FieldCtx`` (``poly_mul``, ``poly_divmod``, ``poly_gcd``) on
prime and extension fields up to the largest table field, and sympy's
``galoistools`` over prime fields.  Also the Zech table the elements share
with the root search, and the production path of one q = 5 survey record."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul

from drinfeld import division, polys, survey
from drinfeld.config import SurveyOptions
from drinfeld.fields import TABLE_LIMIT, ZERO_LOG, FieldTower
from drinfeld.polys import Poly, enumerate_monic_irreducibles, poly_gcd
from drinfeld.textio import module_from_text

TOWER2 = FieldTower(2, max_degree=64)
TOWER3 = FieldTower(3, max_degree=64)
# F_2, F_4, F_8, F_5, F_9 as an extension of F_3 and as the base of q = 9,
# and F_(2^14), the largest table field
LOG_FIELDS = {
    "F2": TOWER2.base_field,
    "F4": TOWER2.field(2),
    "F8": TOWER2.field(3),
    "F5": FieldTower(5).base_field,
    "F9_ext": TOWER3.field(2),
    "F9_base": FieldTower(9).base_field,
    "F2^14": TOWER2.field(14),
}
# prime fields for the sympy oracle; F_16381 is the largest prime table field
SYMPY_PRIMES = [2, 5, 7, 16381]


def code(ctx):
    """Element codes with 0 drawn often, so that inner coefficients vanish."""
    return st.one_of(st.just(0), st.integers(min_value=1, max_value=ctx.order - 1))


def poly(ctx, max_len):
    return st.lists(code(ctx), max_size=max_len).map(
        lambda cs: Poly(ctx, [ctx.dec_elem(c) for c in cs])
    )


def rows(f: Poly) -> np.ndarray:
    return f.field.coeff_array(f.coeffs)


def from_rows(ctx, a: np.ndarray) -> Poly:
    return Poly(ctx, ctx.array_elems(a))


@pytest.mark.parametrize("name", list(LOG_FIELDS))
def test_log_kernel_matches_schoolbook(name):
    """Product, divmod and gcd of ``Poly`` over a table field, the coefficient
    loops in logs, equal the coordinate-array kernel, on zero operands,
    non-monic divisors and a common factor too."""
    ctx = LOG_FIELDS[name]
    assert ctx.order <= TABLE_LIMIT
    zero = Poly.zero(ctx)

    @given(a=poly(ctx, 9), b=poly(ctx, 6), common=poly(ctx, 4))
    @settings(max_examples=120, deadline=None)
    def check(a, b, common):
        for x, y in [(a, b), (b, a), (a, zero), (zero, b)]:
            assert x * y == from_rows(ctx, ctx.poly_mul(rows(x), rows(y)))
        if not b.is_zero():
            for x in (a, zero):
                q, r = ctx.poly_divmod(rows(x), rows(b))
                assert divmod(x, b) == (from_rows(ctx, q), from_rows(ctx, r))
            assert divmod(a * b, b) == (a, zero)
        for x, y in [(a, b), (b, a), (a * common, b * common), (a, zero), (zero, a), (zero, zero)]:
            assert poly_gcd(x, y) == from_rows(ctx, ctx.poly_gcd(rows(x), rows(y)))

    check()


def _high_first(f: Poly) -> list[int]:
    return [c.coords[0] for c in reversed(f.coeffs)]


@pytest.mark.parametrize("p", SYMPY_PRIMES)
def test_log_kernel_matches_sympy(p):
    """Over F_p, ``Poly`` agrees with sympy's gf_mul, gf_div and gf_gcd."""
    ctx = FieldTower(p).base_field
    assert ctx.order <= TABLE_LIMIT

    @given(a=poly(ctx, 9), b=poly(ctx, 6), common=poly(ctx, 4))
    @settings(max_examples=120, deadline=None)
    def check(a, b, common):
        ia, ib = _high_first(a), _high_first(b)
        assert _high_first(a * b) == gf_mul(ia, ib, p, ZZ)
        if not b.is_zero():
            q, r = divmod(a, b)
            assert [_high_first(q), _high_first(r)] == list(gf_div(ia, ib, p, ZZ))
        x, y = a * common, b * common
        assert _high_first(poly_gcd(x, y)) == gf_gcd(_high_first(x), _high_first(y), p, ZZ)

    check()


@pytest.mark.parametrize("name", list(LOG_FIELDS))
def test_zech_table(name):
    """One Zech table serves the elements and the root search: entry i is
    log(1 + g^i), ZERO_LOG exactly at i = log(-1), and the root search's
    steps are four periods of it with entry 0 set to 0."""
    ctx = LOG_FIELDS[name]
    exp, _ = ctx._tables
    n = ctx.order - 1
    one = ctx.one_coords()
    neg = ctx.neg_one_log()
    assert int(exp[neg]) == ctx.enc(ctx.neg(one))
    assert neg == (0 if ctx.char == 2 else n // 2)
    zech = ctx._zech_logs()
    assert np.flatnonzero(zech < 0).tolist() == [neg] and zech[neg] == ZERO_LOG
    for i in range(0, n, max(1, n // 64)):
        if i != neg:
            assert int(exp[zech[i]]) == ctx.enc(ctx.add(one, ctx.dec(int(exp[i]))))
    steps = ctx._zech_steps()
    assert len(steps) == 4 * n and steps[0] == 0
    assert np.array_equal(steps[1:], np.tile(zech, 4)[1:])


def test_q5_record_stays_on_the_log_kernel(monkeypatch):
    """One record of the q = 5 survey with the Abhyankar stage takes no
    powmod, and its split test, on a table field, builds no radical."""
    calls = Counter()
    for name in ("squarefree_decomposition", "powmod"):
        fn = getattr(polys, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(polys, name, counted)
    split_test = division.splits_separably
    splits = []

    def watched(f):
        before = calls.copy()
        out = split_test(f)
        splits.append((f.field.order, calls - before))
        return out

    monkeypatch.setattr(division, "splits_separably", watched)
    tower = FieldTower(5)
    psi = module_from_text("T+1*t+1*t^2", tower)
    p = next(enumerate_monic_irreducibles(tower.base_field, 3))
    rec = survey.compute_record(psi, p, SurveyOptions())
    assert rec.skipped is None and rec.splits_abhyankar is not None
    assert splits == [(5**3, Counter())]
    assert calls["powmod"] == 0
