"""Pinned outputs of the endomorphism lattice.

Any A-basis of End(psi x F_p) gives the same invariant factors; these cases
pin the choice itself: the basis (coefficient codes, low tau-degree first),
the multiplication tensors, the coordinates of pi = tau^deg(p) and the
stable window D.  The q = 9 and q = 4 cases have base degree e = 2, so the
y-multiples of the span columns take part.
"""

import pytest

from drinfeld.fields import FieldTower
from drinfeld.invariants import end_lattice
from drinfeld.textio import module_from_text, poly_from_text, poly_to_text


@pytest.fixture(scope="module")
def tower4():
    return FieldTower(4, max_degree=1024)


# (tower fixture, psi_T text, p text, basis codes, tensors[i][j][k], pi_coords, window)
CASES = [
    (
        "tower3", "T+1*t+1*t^2", "T",
        [(1,), (0, 1)],
        [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["T", "2"]],
        ],
        ["0", "1"],
        5,
    ),
    (
        "tower3", "T+1*t+1*t^2", "T+1",
        [(1,), (0, 1)],
        [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["T+1", "2"]],
        ],
        ["0", "1"],
        5,
    ),
    (
        "tower3", "T+1*t+1*t^2", "T^2+1",
        [(1,), (3, 1)],
        [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["T+2", "2"]],
        ],
        ["T", "2"],
        6,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T",
        [(1,), (0, 1), (0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["T", "1", "0"]],
            [["0", "0", "1"], ["T", "1", "0"], ["0", "T", "1"]],
        ],
        ["0", "1", "0"],
        7,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T+1",
        [(1,), (0, 1), (0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["T+1", "1", "0"]],
            [["0", "0", "1"], ["T+1", "1", "0"], ["0", "T+1", "1"]],
        ],
        ["0", "1", "0"],
        7,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T^2+T+1",
        [(1,), (0, 0, 1), (0, 0, 0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["T^2+T+1", "1", "0"]],
            [["0", "0", "1"], ["T^2+T+1", "1", "0"], ["0", "T^2+T+1", "1"]],
        ],
        ["0", "1", "0"],
        8,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T^3+T+1",
        [(1,), (2, 1), (4, 6, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["T+1", "0", "0"]],
            [["0", "0", "1"], ["T+1", "0", "0"], ["0", "T+1", "0"]],
        ],
        ["T", "1", "0"],
        9,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T^3+T^2+1",
        [(1,), (2, 1), (4, 6, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["T", "0", "0"]],
            [["0", "0", "1"], ["T", "0", "0"], ["0", "T", "0"]],
        ],
        ["T+1", "1", "0"],
        9,
    ),
    (
        "tower2", "T+1*t+1*t^3", "T^5+T^3+T^2+T+1",
        [(1,), (0, 0, 0, 0, 0, 1), (10, 8, 27, 0, 28, 0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["T^2+T+1", "T+1", "T+1"], ["T^4+T^3", "0", "1"]],
            [["0", "0", "1"], ["T^4+T^3", "0", "1"], ["T^4", "T^3", "T+1"]],
        ],
        ["0", "1", "0"],
        11,
    ),
    (
        "tower9", "T+1*t+1*t^2", "T",
        [(1,), (0, 1)],
        [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["T", "z^4"]],
        ],
        ["0", "1"],
        5,
    ),
    (
        "tower9", "T+1*t+1*t^2", "T^2+z",
        [(1,), (21, 42)],
        [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["z^4*T+z", "z^2"]],
        ],
        ["T", "z^6"],
        6,
    ),
    (
        "tower4", "T+1*t+z*t^3", "T+z",
        [(1,), (0, 1), (0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["z^2*T+1", "z^2", "0"]],
            [["0", "0", "1"], ["z^2*T+1", "z^2", "0"], ["0", "z^2*T+1", "z^2"]],
        ],
        ["0", "1", "0"],
        7,
    ),
    (
        "tower4", "T+1*t+z*t^3", "T^2+T+z",
        [(1,), (0, 0, 1), (0, 0, 0, 0, 1)],
        [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["0", "0", "1"], ["z*T^2+z*T+z^2", "z", "0"]],
            [["0", "0", "1"], ["z*T^2+z*T+z^2", "z", "0"], ["0", "z*T^2+z*T+z^2", "z"]],
        ],
        ["0", "1", "0"],
        8,
    ),
]

@pytest.mark.parametrize("case", CASES, ids=[f"q{c[0][5:]}-{c[2]}" for c in CASES])
def test_end_lattice_outputs_pinned(request, case):
    tower_name, psi_text, p_text, basis, tensors, pi_coords, window = case
    tower = request.getfixturevalue(tower_name)
    lat = end_lattice(module_from_text(psi_text, tower), poly_from_text(p_text, tower))
    assert [tuple(c.int_code() for c in b.coeffs) for b in lat.basis] == basis
    assert [[[poly_to_text(t) for t in row] for row in plane] for plane in lat.tensors] == tensors
    assert [poly_to_text(c) for c in lat.pi_coords] == pi_coords
    assert lat.window == window
