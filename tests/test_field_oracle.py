"""Coordinate arithmetic and Rabin's test against sympy's galoistools.

Above ``TABLE_LIMIT`` a product of two elements is one Toeplitz product and a
fold, an inverse is one solve with the element's multiplication matrix, and a
power is square-and-multiply on the product.  The independent oracle is dense
polynomial arithmetic over F_p modulo the field's modulus: ``gf_mul`` and
``gf_rem`` for products, ``gf_gcdex`` for inverses and ``gf_pow_mod`` for
powers.  ``polys.is_irreducible`` over prime fields, the test the tower's
modulus search runs, is checked against ``gf_irreducible_p``.
"""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem

from drinfeld.errors import ZeroInputError
from drinfeld.fields import TABLE_LIMIT, FFElem, FieldTower
from drinfeld.polys import Poly, is_irreducible

# (p, degree over the prime field), all above the table limit
FIELDS = [(3, 10), (2, 20), (2, 64), (3, 200)]


def to_gf(coords) -> list[int]:
    """Low-first coordinates as a galoistools polynomial, high first, trimmed."""
    out = [int(c) for c in reversed(coords)]
    while out and not out[0]:
        out.pop(0)
    return out


def from_gf(f: list[int], d: int) -> tuple[int, ...]:
    low = [int(c) for c in reversed(f)]
    return tuple(low + [0] * (d - len(low)))


@pytest.fixture(scope="module", params=FIELDS, ids=[f"F{p}^{d}" for p, d in FIELDS])
def field(request):
    p, d = request.param
    ctx = FieldTower(p, max_degree=d).field(d)
    assert ctx.order > TABLE_LIMIT and ctx._tables is None
    rng = random.Random(d)
    elems = [ctx.x_coords(), ctx.one_coords(), (p - 1,) * d]
    elems += [tuple(rng.randrange(p) for _ in range(d)) for _ in range(12)]
    return ctx, to_gf(ctx.fid.modulus), [FFElem(ctx, c) for c in elems if any(c)]


def gf_inverse(a: FFElem, modulus: list[int]) -> list[int]:
    p = a.ctx.char
    s, _, h = gf_gcdex(to_gf(a.coords), modulus, p, ZZ)
    assert h == [1]
    return s


def test_mul_matches_gf_mul_and_rem(field):
    ctx, modulus, elems = field
    p, d = ctx.char, ctx.degree
    for a, b in zip(elems, elems[1:] + elems[:1]):
        expected = gf_rem(gf_mul(to_gf(a.coords), to_gf(b.coords), p, ZZ), modulus, p, ZZ)
        assert (a * b).coords == from_gf(expected, d)
        assert ctx.mul(a.coords, b.coords) == from_gf(expected, d)


def test_inv_matches_gf_gcdex(field):
    ctx, modulus, elems = field
    d = ctx.degree
    for a in elems:
        expected = from_gf(gf_inverse(a, modulus), d)
        assert a.inv().coords == expected
        assert (ctx.one_elem() / a).coords == expected
    with pytest.raises(ZeroInputError):
        ctx.zero_elem().inv()


def test_pow_matches_gf_pow_mod(field):
    ctx, modulus, elems = field
    p, d = ctx.char, ctx.degree
    for a in elems[:6]:
        inverse = gf_inverse(a, modulus)
        for k in [0, 1, 2, 3, p, 97, -1, -2, -13]:
            base = to_gf(a.coords) if k >= 0 else inverse
            expected = gf_pow_mod(base, abs(k), modulus, p, ZZ)
            assert (a**k).coords == from_gf(expected, d), k
        assert (a ** (ctx.order - 2)).coords == from_gf(inverse, d)  # a^(|F| - 2) = 1/a
    with pytest.raises(ZeroInputError):
        ctx.zero_elem() ** -1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_irreducible_matches_gf_irreducible_p(p):
    F = FieldTower(p).base_field
    rng = random.Random(p)
    cases = [[rng.randrange(p) for _ in range(d)] + [1] for d in range(1, 13) for _ in range(25)]
    seen = set()
    for tail in cases:
        f = Poly(F, [F.dec_elem(c) for c in tail])
        expected = gf_irreducible_p(list(reversed(tail)), p, ZZ)
        assert is_irreducible(f) == expected, tail
        seen.add(expected)
    assert seen == {True, False}
