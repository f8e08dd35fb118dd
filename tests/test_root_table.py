"""The residue fields' root table against its two oracles.

``_FieldCtx.root_table`` maps every monic irreducible of degree n = [F : F_q]
over F_q to the code of its lex-smallest root in the table field F, from one
walk over the Frobenius orbits of F.  Its keys must be exactly the sieve's
primes (``enumerate_monic_irreducibles``, a second route for the sieve), and
each root must be the one ``lex_min_root`` finds by evaluating the prime at
every element of F.  Every degree up to the table limit is checked in full.
"""

import pytest

from drinfeld.fields import TABLE_LIMIT, FieldTower
from drinfeld.modules import ResidueField
from drinfeld.polys import Poly, enumerate_monic_irreducibles, lex_min_root

# (q, largest degree n): every table field F_(q^n) with q^n <= TABLE_LIMIT,
# at prime q and at e = [F_q : F_p] = 2
CASES = [(2, 14), (3, 8), (4, 5), (9, 3)]


def _code(p, q: int) -> int:
    """The code sum c_j q^j of a monic p over F_q (j < deg p)."""
    return sum(c.int_code() * q**j for j, c in enumerate(p.coeffs[:-1]))


@pytest.mark.parametrize("q,top", CASES, ids=[f"q{q}" for q, _ in CASES])
def test_root_table_equals_the_sieve_and_lex_min_root(q, top):
    tower = FieldTower(q)
    base = tower.base_field
    for n in range(1, top + 1):
        F = tower.field(n * tower.base_degree)
        assert F.order <= TABLE_LIMIT
        tower.embedding(base, F)
        table = F.root_table()
        primes = list(enumerate_monic_irreducibles(base, n))
        assert sorted(table) == [_code(p, q) for p in primes], (q, n)
        for p in primes:
            root = lex_min_root(p, F, lambda c: tower.embed(c, F), "not prime")
            assert table[_code(p, q)] == root.int_code(), (q, n, p)


def test_root_table_is_built_once_per_field():
    """Two residue fields of one degree share one table, and their T-images
    are its entries."""
    tower = FieldTower(5)
    p1, p2 = list(enumerate_monic_irreducibles(tower.base_field, 3))[:2]
    k1, k2 = ResidueField(tower, p1), ResidueField(tower, p2)
    assert k1.ctx is k2.ctx
    table = k1.ctx.root_table()
    assert k2.ctx.root_table() is table
    assert [k.t_image.int_code() for k in (k1, k2)] == [table[_code(p, 5)] for p in (p1, p2)]


def test_no_root_table_above_the_table_limit():
    tower = FieldTower(3)
    assert tower.field(9).order > TABLE_LIMIT
    assert tower.field(9).root_table() is None


@pytest.mark.parametrize("q", [2, 5, 9])
def test_degree_one_residue_field_takes_minus_p0(q, monkeypatch):
    """A linear p = T + p_0 has the one root -p_0 in F_q: its residue field
    builds no root table and searches no root."""
    from drinfeld import fields, modules

    def no_table(*args):
        raise AssertionError("a root table or a root search ran")

    monkeypatch.setattr(fields, "orbit_roots", no_table)
    monkeypatch.setattr(modules, "lex_min_root", no_table)
    tower = FieldTower(q)
    for p in enumerate_monic_irreducibles(tower.base_field, 1):
        res = ResidueField(tower, p)
        assert res.ctx is tower.base_field
        assert res.t_image == -p.coeffs[0]
        assert res.reduce(p).is_zero()
        assert res.reduce(p * p + Poly.x(tower.base_field)) == res.t_image
