"""The endomorphism lattice's commutant by the tau-degree recursion, checked
against the dense commutation system; the solve on the free blocks, checked
against the solve on every row; each window eliminated once and each Krylov
product built once; the per-window DEBUG log."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from drinfeld import invariants, linalg
from drinfeld.cli import main
from drinfeld.errors import BadReductionError, InconclusiveBasisError
from drinfeld.fields import FieldTower
from drinfeld.modules import reduce_at
from drinfeld.polys import enumerate_monic_irreducibles
from drinfeld.skew import left_blocks, left_mul
from drinfeld.textio import module_from_text, poly_from_text, poly_to_text

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
    that order of one recursion, so it grows and then answers a smaller
    window; and the solutions at D + 2r cut to at most D+1 rows, as the
    lattice takes its window D from its stability window."""
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
                commutant = invariants.Commutant(red)
                for D in (n + 2 * r, n + 4 * r, n + 2 * r + 1):
                    want = [x.tolist() for x in _dense_commutant(red, D)]
                    got = commutant.solutions(D)
                    sols_w = commutant.solutions(D + 2 * r)
                    cut = [x for x in sols_w if len(x) <= D + 1]
                    assert [x.tolist() for x in got] == want, (text, p, D)
                    assert [x.tolist() for x in cut] == want, (text, p, D, "cut")
                    # the free blocks name the commutant at D + 2r injectively
                    blocks = np.stack([invariants._free_blocks(x, n, D + 2 * r) for x in sols_w])
                    assert len(linalg.rref(blocks, red.ctx.char)[1]) == len(sols_w), (text, p, D)
                    cases += 2
    assert cases >= 60


def test_lattice_builds_each_krylov_product_once(monkeypatch, tower2, psi2_rank3):
    """At p = T^7+T^3+1 the first window 13 is too small, so the walk runs
    the greedy at 13 and 19 and the stability check at 25.  Each step solves
    the commutant once, at its stability window: 19, then 25, one
    ``linalg.nullspace`` each, of m (D // n + 1) columns; the window 13 is cut
    from 19.  Each psibar_T^(u+1) b is still formed once."""
    red = reduce_at(psi2_rank3, poly_from_text("T^7+T^3+1", tower2))
    n, m = red.deg_p, red.ctx.degree
    windows, eliminated, products = [], [], []
    inner_window = invariants.Commutant.solutions
    inner_nullspace = linalg.nullspace
    inner_mul = invariants.left_mul

    def window_spy(commutant, D):
        windows.append(D)
        return inner_window(commutant, D)

    def nullspace_spy(mat, p):
        eliminated.append(mat.shape[1])
        return inner_nullspace(mat, p)

    def mul_spy(blocks, x, p):
        if blocks is red.psibar_blocks:
            products.append(x.tobytes())
        return inner_mul(blocks, x, p)

    monkeypatch.setattr(invariants.Commutant, "solutions", window_spy)
    monkeypatch.setattr(linalg, "nullspace", nullspace_spy)
    monkeypatch.setattr(invariants, "left_mul", mul_spy)
    lat = invariants.end_lattice_reduced(red)
    assert windows == [19, 25] and lat.window == 19
    assert eliminated == [m * (D // n + 1) for D in (19, 25)]
    assert products and len(products) == len(set(products))


def _all_rows_solve(red, basis, targets):
    """The oracle: the coordinates of the targets by one solve against every
    row of tau-degree <= the largest target degree, or None.  The span
    matrix has the prime coordinates of y^t psibar_T^u b in (b, u, t) order,
    each y-multiple one product by M(y) per row."""
    tower, ctx = red.source.tower, red.ctx
    p0, m, e = ctx.char, ctx.degree, tower.base_degree
    top = max(len(t) for t in targets) - 1
    my = ctx.mult_matrix(tower.embed(tower.gen(tower.base_field), ctx).coords)

    def full(x):
        v = np.zeros((top + 1, m), dtype=np.int64)
        v[: len(x)] = x
        return v

    krylov = invariants._Krylov(red)
    seqs = [krylov.powers(b, top) for b in basis]
    cols = []
    for seq in seqs:
        for x in seq:
            x = full(x)
            for _ in range(e):
                cols.append(x.ravel())
                x = (x @ my.T) % p0
    rhs = np.stack([full(t).ravel() for t in targets], axis=1)
    sol = linalg.solve(np.stack(cols, axis=1), rhs, p0)
    if sol is None:
        return None
    counts = [len(seq) for seq in seqs]
    return [[poly_to_text(c) for c in invariants._coords(sol[:, k], counts, red)]
            for k in range(len(targets))]


def _lattice_targets(lat):
    """The basis arrays, and every product e_i e_j (unit ones included) and
    pi = tau^n, as the lattice solved for them before the free-block solve."""
    red = lat.red
    ctx, n, m = red.ctx, red.deg_p, red.ctx.degree
    basis = [b.array() for b in lat.basis]
    targets = [left_mul(left_blocks(ctx, bi), bj, ctx.char) for bi in basis for bj in basis]
    tau_n = np.zeros((n + 1, m), dtype=np.int64)
    tau_n[n, 0] = 1
    return basis, targets + [tau_n]


# (tower fixture, psi_T texts of ranks 3 and 4, largest deg p)
SOLVE_CASES = [
    ("tower2", ["T+1*t+1*t^3", "T+T*t+1*t^3", "T+1*t+1*t^4"], 6),
    ("tower3", ["T+1*t+1*t^3", "T+1*t^4"], 3),
    ("tower4", ["T+1*t+1*t^3", "T+z*t+1*t^4"], 3),
]


@pytest.mark.parametrize("tower_name,psis,max_deg", SOLVE_CASES, ids=[c[0] for c in SOLVE_CASES])
def test_free_block_solve_matches_all_rows_solve(request, tower_name, psis, max_deg):
    """The lattice's tensors and pi coordinates, solved on the free blocks
    e_0, e_n, e_2n, ... with the unit products read off, equal the solve
    against every row for every product; at q = 2 also at p = T^7+T^3+1,
    where the first window is too small."""
    tower = request.getfixturevalue(tower_name)
    cases = 0
    for text in psis:
        psi = module_from_text(text, tower)
        r = psi.rank
        primes = [p for d in range(1, max_deg + 1)
                  for p in enumerate_monic_irreducibles(tower.base_field, d)]
        if tower_name == "tower2":
            primes.append(poly_from_text("T^7+T^3+1", tower))
        for p in primes:
            try:
                lat = invariants.end_lattice_reduced(reduce_at(psi, p))
            except BadReductionError:
                continue
            want = _all_rows_solve(lat.red, *_lattice_targets(lat))
            tensors = [[[poly_to_text(c) for c in coords] for coords in row] for row in lat.tensors]
            assert tensors == [want[i * r : (i + 1) * r] for i in range(r)], (text, p)
            assert [poly_to_text(c) for c in lat.pi_coords] == want[-1], (text, p)
            cases += 1
    assert cases >= 25


def test_free_block_solve_raises_outside_the_span(monkeypatch, tower2, psi2_rank3):
    """A target outside the A-span of the basis still raises: a ``left_mul``
    spy shifts each target product e_i e_j (the products by blocks other
    than psibar_T's) by a unit vector at a free block the span columns do
    not reach, and the all-rows oracle finds no solution either."""
    red = reduce_at(psi2_rank3, poly_from_text("T^7+T^3+1", tower2))
    lat = invariants.end_lattice_reduced(red)
    basis, targets = _lattice_targets(lat)
    n, m, p0 = red.deg_p, red.ctx.degree, red.ctx.char
    top = max(len(t) for t in targets) - 1
    mat = invariants._span_columns(invariants._Krylov(red), basis, top)[0]
    units = np.eye(len(mat), dtype=np.int64)
    shift = next(c for c in range(len(mat)) if linalg.solve(mat, units[:, c], p0) is None)
    row, col = shift // m * n, shift % m

    def shifted(t):
        x = np.zeros((top + 1, m), dtype=np.int64)
        x[: len(t)] = t
        x[row, col] += 1
        return x % p0

    assert _all_rows_solve(red, basis, [shifted(t) for t in targets]) is None

    inner = invariants.left_mul
    products = []

    def mul_spy(blocks, x, p):
        out = inner(blocks, x, p)
        if blocks is red.psibar_blocks:
            return out
        products.append(out)
        return shifted(out)

    monkeypatch.setattr(invariants, "left_mul", mul_spy)
    with pytest.raises(InconclusiveBasisError, match="does not lie in the A-span"):
        invariants.end_lattice_reduced(red)
    assert len(products) == (red.rank - 1) ** 2


def test_lattice_logs_each_window_at_debug(caplog, capsys, monkeypatch):
    """The survey runs the lattice only under --full-checks.  There DEBUG
    lines name each window's commutant size and basis, and survey stdout is
    the golden file's with the lattice check added to every record; without
    it stdout is the golden file byte for byte and nothing is logged."""
    monkeypatch.delenv("DF_MAX_EXT_DEGREE", raising=False)
    argv = ["survey", "--q", "2", "--psi", "T+1*t+1*t^3", "--deg", "1,2", "--format", "json"]
    golden = (DATA / "survey_q2_r3_deg1-2.jsonl").read_text(encoding="utf-8")
    with caplog.at_level(logging.DEBUG, logger="drinfeld.invariants"):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden
        assert not [r for r in caplog.records if r.name == "drinfeld.invariants"]
        assert main([*argv, "--full-checks"]) == 0
    want = [json.loads(line) for line in golden.splitlines()]
    for rec in want:
        rec["checks_passed"].insert(rec["checks_passed"].index("structure_oracle") + 1,
                                    "b_lattice_agreement")
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == want
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
