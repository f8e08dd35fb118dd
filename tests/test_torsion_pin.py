"""Pinned outputs of the torsion oracle.

Determinant and trace of the torsion Frobenius matrix hold for any choice of
generators; these cases pin the choice itself: the splitting degree, the
extension degree, the Frobenius matrix entries, the generator coordinates in
the splitting field, and det(xI - M) over A/aA.
"""

import pytest

from drinfeld.amatrix import ring_det
from drinfeld.modules import DrinfeldModule
from drinfeld.polys import Poly
from drinfeld.textio import poly_to_text
from drinfeld.torsion import torsion_basis


def _char_poly_texts(m, ring):
    n = len(m)
    x = Poly.x(ring)
    xm = [
        [(x if i == j else Poly.zero(ring)) - Poly.constant(m[i][j]) for j in range(n)]
        for i in range(n)
    ]
    cp = ring_det(xm)
    return [poly_to_text(cp[j].rep) for j in range(n + 1)]


def _module(tower, coeffs):
    F = tower.base_field
    return DrinfeldModule(tower, [Poly.one(F) if c else Poly.zero(F) for c in coeffs])


def _poly(tower, ints):
    return Poly.from_ints(tower.base_field, ints)


# (tower fixture, psi_T coefficients of tau^1..tau^r, p low-first, a low-first,
#  splitting_s, extension degree, Frobenius matrix, generator coords, det(xI - M))
CASES = [
    (
        "tower3", [1, 1], [1, 1], [0, 1],
        8, 8,
        [["0", "1"], ["1", "2"]],
        [(0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)],
        ["2", "1", "1"],
    ),
    (
        "tower3", [1, 1], [1, 1], [0, 0, 1],
        24, 24,
        [["T", "T+1"], ["2*T+1", "2*T+2"]],
        [
            (0, 2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 2, 0, 1, 0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
        ],
        ["2*T+2", "1", "1"],
    ),
    (
        "tower9", [1, 1], [0, 1], [1, 1],
        3, 6,
        [["1", "z"], ["0", "1"]],
        [(1, 0, 0, 0, 0, 0), (0, 2, 1, 0, 0, 0)],
        ["1", "1", "1"],
    ),
    (
        "tower2", [1, 0, 1], [0, 1], [1, 1, 1],
        15, 15,
        [["T+1", "T+1", "T+1"], ["0", "0", "1"], ["0", "T+1", "T+1"]],
        [
            (0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0),
        ],
        ["T", "1", "0", "1"],
    ),
    (
        "tower2", [1, 0, 1], [1, 1], [0, 0, 1],
        14, 14,
        [["0", "1", "T"], ["T", "0", "1"], ["T+1", "1", "0"]],
        [
            (1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0),
        ],
        ["T+1", "1", "0", "1"],
    ),
]


@pytest.mark.parametrize(
    "case", CASES, ids=["q3-a=T", "q3-a=T^2", "q9-e2", "q2-r3-a=T^2+T+1", "q2-r3-a=T^2"]
)
def test_torsion_outputs_pinned(request, case):
    tower_name, psi_coeffs, p_ints, a_ints, s, deg, frob, gens, cp = case
    tower = request.getfixturevalue(tower_name)
    psi = _module(tower, psi_coeffs)
    tb = torsion_basis(psi, _poly(tower, p_ints), _poly(tower, a_ints))
    assert tb.splitting_s == s
    assert tb.splitting_extension.degree == deg
    assert [[poly_to_text(e.rep) for e in row] for row in tb.frobenius_matrix] == frob
    assert [g.coords for g in tb.generators] == gens
    assert _char_poly_texts(tb.frobenius_matrix, tb.ring) == cp
