"""The endomorphism lattice's commutant by the tau-degree recursion, checked
against the dense commutation system; each Krylov product built once; the
per-window DEBUG log."""

import logging
from pathlib import Path

import numpy as np
import pytest

from drinfeld import invariants, linalg
from drinfeld.cli import main
from drinfeld.errors import BadReductionError
from drinfeld.fields import FieldTower
from drinfeld.modules import reduce_at
from drinfeld.polys import enumerate_monic_irreducibles
from drinfeld.textio import module_from_text, poly_from_text

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def tower4():
    return FieldTower(4, max_degree=1024)


def _dense_commutant(red, D):
    """The oracle: the (D+r+1)m x (D+1)m system e psibar_T = psibar_T e in
    the prime coordinates of e_0..e_D, its rref null-space basis, each vector
    without zero top rows, in (degree, code) order."""
    tower, ctx = red.source.tower, red.ctx
    p0, m, r = tower.char, ctx.degree, red.rank
    big = np.zeros(((D + r + 1) * m, (D + 1) * m), dtype=np.int64)
    for d in range(D + 1):
        for j, (gj, kj) in enumerate(zip(red.psibar_T.coeffs, red.psibar_blocks)):
            if kj is None:
                continue
            # coefficient at tau^(d+j): e_d * gj^(q^d) - gj * e_d^(q^j)
            twisted = tower.frobenius_power(gj, d)
            big[(d + j) * m : (d + j + 1) * m, d * m : (d + 1) * m] += (
                ctx.mult_matrix(twisted.coords) - kj
            )
    out = []
    for rowv in linalg.nullspace(big % p0, p0):
        x = rowv.reshape(D + 1, m)
        out.append(x[: np.flatnonzero(x.any(axis=1))[-1] + 1])
    out.sort(key=lambda x: (len(x), tuple(ctx.enc(row) for row in x.tolist())))
    return out


# (tower fixture, psi_T texts of ranks 2..4, largest deg p); T+1*t^3 has
# g_1 = g_2 = 0, every deg-1 prime makes each k a multiple of n, and q = 4, 9
# have base degree e = 2
ORACLE_CASES = [
    ("tower2", ["T+1*t+1*t^2", "T+1*t+1*t^3", "T+1*t^3", "T+T*t+1*t^3", "T+1*t+1*t^4"], 3),
    ("tower3", ["T+1*t+1*t^2", "T+1*t^2", "T+1*t+1*t^3", "T+1*t^3", "T+1*t^4"], 2),
    ("tower4", ["T+1*t+1*t^2", "T+z*t+1*t^2", "T+1*t+1*t^3", "T+1*t^3"], 2),
    ("tower5", ["T+1*t+1*t^2", "T+2*t+1*t^3", "T+1*t^3"], 2),
    ("tower9", ["T+1*t+1*t^2", "T+z*t+1*t^3", "T+1*t^3"], 1),
]


@pytest.mark.parametrize("tower_name,psis,max_deg", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_commutant_recursion_matches_dense_oracle(request, tower_name, psis, max_deg):
    """Same arrays in the same order at D = n+2r, n+4r and n+2r+1, asked in
    that order, so the recursion grows and then answers a smaller window."""
    tower = request.getfixturevalue(tower_name)
    cases = 0
    for text in psis:
        psi = module_from_text(text, tower)
        r = psi.rank
        for d in range(1, max_deg + 1):
            for p in enumerate_monic_irreducibles(tower.base_field, d):
                try:
                    red = reduce_at(psi, p)
                except BadReductionError:
                    continue
                n = red.deg_p
                for D in (n + 2 * r, n + 4 * r, n + 2 * r + 1):
                    got = invariants._commutant_nullspace(red, D)
                    want = _dense_commutant(red, D)
                    assert [x.tolist() for x in got] == [x.tolist() for x in want], (text, p, D)
                    cases += 1
    assert cases >= 30


def test_lattice_builds_each_krylov_product_once(monkeypatch, tower2, psi2_rank3):
    """At p = T^7+T^3+1 the first window 13 is too small, so the greedy runs
    at 13 and 19, the stability check at 25 and the solve at the largest
    target degree; each psibar_T^(u+1) b is still formed once."""
    red = reduce_at(psi2_rank3, poly_from_text("T^7+T^3+1", tower2))
    windows, products = [], []
    inner_nullspace = invariants._commutant_nullspace
    inner_mul = invariants.left_mul

    def nullspace_spy(red_, D):
        windows.append(D)
        return inner_nullspace(red_, D)

    def mul_spy(blocks, x, p):
        if blocks is red.psibar_blocks:
            products.append(x.tobytes())
        return inner_mul(blocks, x, p)

    monkeypatch.setattr(invariants, "_commutant_nullspace", nullspace_spy)
    monkeypatch.setattr(invariants, "left_mul", mul_spy)
    lat = invariants.end_lattice_reduced(red)
    assert windows == [13, 19, 25] and lat.window == 19
    assert products and len(products) == len(set(products))


def test_lattice_logs_each_window_at_debug(caplog, capsys, monkeypatch):
    """DEBUG lines name each window's commutant size and basis; survey stdout
    stays byte-identical to the golden file."""
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    argv = ["survey", "--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "1,2", "--format", "json"]
    with caplog.at_level(logging.DEBUG, logger="drinfeld.invariants"):
        assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / "survey_q2_r3_deg1-2.jsonl").read_text(encoding="utf-8")
    lines = [r.getMessage() for r in caplog.records if r.name == "drinfeld.invariants"]
    # one window per prime; m = n, so D = n + 6 has m (D // n + 1) parameter
    # columns and m (D // n + 3) constraint rows
    assert lines == [
        "lattice p=T window D=7: commutant 8 parameter columns, 10 constraint rows, "
        "8 solutions; basis 3 of 3",
        "lattice p=T+1 window D=7: commutant 8 parameter columns, 10 constraint rows, "
        "8 solutions; basis 3 of 3",
        "lattice p=T^2+T+1 window D=8: commutant 10 parameter columns, 14 constraint rows, "
        "8 solutions; basis 3 of 3",
    ]
