"""The packed-row kernel of ``drinfeld.linalg`` against two independent
eliminations: sympy's ``DomainMatrix`` over GF(p), and the numpy
column-by-column elimination it replaced, kept here as an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from drinfeld import linalg
from drinfeld.errors import ResourceLimitError

PRIMES = [2, 3, 5, 7, 16381]
# shapes seen in the surveys (the lattice's largest are 444 x 40 and 18 x 300),
# plus the empty and degenerate ones
SHAPES = [(0, 4), (4, 0), (0, 0), (1, 1), (5, 2), (4, 8), (14, 14), (105, 90), (444, 40), (18, 300)]


def numpy_rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Column-by-column elimination, one numpy row operation per pivot."""
    a = (m % p).astype(np.int64).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if len(other):
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def sympy_rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    K = GF(p, symmetric=False)
    rows, cols = m.shape
    dm = DomainMatrix([[K(int(x)) for x in row] for row in m], (rows, cols), K)
    r, pivots = dm.rref()
    out = np.array([[int(x) for x in row] for row in r.to_list()], dtype=np.int64)
    return out.reshape(rows, cols), list(pivots)


def random_matrix(rng, shape, p, rank=None):
    """Uniform entries, or a product of random factors of inner size ``rank``."""
    rows, cols = shape
    if rank is None:
        return rng.integers(0, p, size=shape, dtype=np.int64)
    left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
    return (left @ right) % p


def cases():
    rng = np.random.default_rng(17)
    out = []
    for p in PRIMES:
        for shape in SHAPES:
            out.append((p, shape, random_matrix(rng, shape, p)))
        # rank-deficient, with zero columns, and a sparse one
        m = random_matrix(rng, (12, 15), p, rank=4)
        m[:, [0, 5, 14]] = 0
        out.append((p, "rank4+zero-cols", m))
        out.append((p, "rank3-tall", random_matrix(rng, (30, 9), p, rank=3)))
        out.append((p, "sparse", rng.integers(0, p, size=(10, 20)) * (rng.random((10, 20)) < 0.1)))
        out.append((p, "zero", np.zeros((6, 7), dtype=np.int64)))
        out.append((p, "unreduced", rng.integers(-3 * p, 3 * p, size=(7, 9))))
    return out


CASES = cases()
IDS = [f"p{p}-{s if isinstance(s, str) else '%dx%d' % s}" for p, s, _ in CASES]


@pytest.mark.parametrize("p,shape,m", CASES, ids=IDS)
def test_rref_matches_numpy_oracle(p, shape, m):
    r, pivots = linalg.rref(m, p)
    want, want_pivots = numpy_rref(m, p)
    assert r.dtype == np.int64 and r.shape == m.shape
    assert pivots == want_pivots
    assert np.array_equal(r, want)


@pytest.mark.parametrize(
    "p,shape,m",
    [c for c in CASES if c[2].size <= 2000],
    ids=[i for i, c in zip(IDS, CASES) if c[2].size <= 2000],
)
def test_rref_matches_sympy(p, shape, m):
    r, pivots = linalg.rref(m, p)
    want, want_pivots = sympy_rref(m, p)
    assert pivots == want_pivots
    assert np.array_equal(r, want)


@pytest.mark.parametrize("p,shape,m", CASES, ids=IDS)
def test_nullspace_is_the_canonical_kernel(p, shape, m):
    rows, cols = m.shape
    basis = linalg.nullspace(m, p)
    rank = len(numpy_rref(m, p)[1])
    assert basis.dtype == np.int64 and basis.shape == (cols - rank, cols)
    assert not ((m @ basis.T) % p).any()
    # one vector per free column: 1 there, 0 at the other free columns
    free = [c for c in range(cols) if c not in numpy_rref(m, p)[1]]
    assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
def test_solve_consistent_and_inconsistent(p):
    rng = np.random.default_rng(p)
    for shape, rank in [((8, 6), 4), ((5, 9), 5), ((20, 20), 11), ((3, 3), 0)]:
        m = random_matrix(rng, shape, p, rank=rank)
        x0 = rng.integers(0, p, size=shape[1])
        x = linalg.solve(m, (m @ x0) % p, p)
        assert x is not None and x.shape == (shape[1],)
        assert np.array_equal((m @ x) % p, (m @ x0) % p)
        # stacked right-hand sides
        xs0 = rng.integers(0, p, size=(shape[1], 3))
        xs = linalg.solve(m, (m @ xs0) % p, p)
        assert np.array_equal((m @ xs) % p, (m @ xs0) % p)
        # a right-hand side outside the column space, when there is one
        rank_m = len(sympy_rref(m, p)[1])
        if rank_m == shape[0]:
            continue
        aug_rank = lambda b: len(sympy_rref(np.concatenate([m, b[:, None]], axis=1), p)[1])
        b = rng.integers(0, p, size=shape[0])
        while aug_rank(b) == rank_m:
            b = rng.integers(0, p, size=shape[0])
        assert linalg.solve(m, b, p) is None


def test_solve_unit_cases():
    assert linalg.solve(np.zeros((2, 2), dtype=np.int64), np.array([0, 1]), 5) is None
    assert np.array_equal(linalg.solve(np.eye(3, dtype=np.int64) * 2, np.array([1, 2, 3]), 5), [3, 1, 4])
    x = linalg.solve(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64), 3)
    assert np.array_equal(x, [0, 0, 0])


@pytest.mark.parametrize("p", PRIMES)
def test_rowspace_matches_rref(p):
    """After every add: basis and pivots are the rref of the vectors added so
    far; contains agrees with the rank of the stack."""
    rng = np.random.default_rng(100 + p)
    dim = 16
    gens = random_matrix(rng, (10, dim), p, rank=7)
    space = linalg.RowSpace(dim, p)
    added = []
    for v in gens:
        probe = random_matrix(rng, (1, dim), p)[0]
        rank_with_probe = len(numpy_rref(np.array(added + [probe]).reshape(-1, dim), p)[1])
        assert space.contains(probe) == (rank_with_probe == space.rank)
        grew = space.add(v)
        before = len(added)
        added.append(v)
        want, pivots = numpy_rref(np.array(added), p)
        assert grew == (len(pivots) > len(numpy_rref(np.array(added[:before]).reshape(-1, dim), p)[1]))
        assert space.pivots == pivots and space.rank == len(pivots)
        assert space.basis.dtype == np.int64
        assert np.array_equal(space.basis, want[: len(pivots)])
        assert np.array_equal(space.basis, sympy_rref(np.array(added), p)[0][: len(pivots)])
        assert space.contains(v) and space.contains((3 * v) % p)


def test_rowspace_full_and_empty():
    space = linalg.RowSpace(4, 3)
    assert space.basis.shape == (0, 4) and space.rank == 0
    assert space.contains(np.zeros(4, dtype=np.int64))
    assert not space.add(np.zeros(4, dtype=np.int64))
    for v in np.eye(4, dtype=np.int64)[::-1] * 2:
        assert space.add(v)
    assert np.array_equal(space.basis, np.eye(4, dtype=np.int64))
    assert space.pivots == [0, 1, 2, 3]
    assert not space.add(np.array([1, 2, 0, 1]))


def test_slot_bits_bounds():
    """The least width above (p-1) + n (p-1)^2, and a typed error past 64 bits."""
    assert linalg.slot_bits(2, 0) == 8
    assert linalg.slot_bits(2, 254) == 8  # 1 + 254 = 255
    assert linalg.slot_bits(2, 255) == 16
    assert linalg.slot_bits(3, 63) == 8 and linalg.slot_bits(3, 64) == 16
    assert linalg.slot_bits(16381, 16) == 32
    assert linalg.slot_bits(16381, 17) == 64
    # the table limit q <= 2^14 keeps p <= 16381: 64-bit slots hold any
    # matrix with fewer than 2^35 pivots
    assert linalg.slot_bits(16381, 2**35) == 64
    with pytest.raises(ResourceLimitError):
        linalg.slot_bits(16381, 2**37)
    with pytest.raises(ResourceLimitError):
        linalg.slot_bits(2**31 - 1, 5)


@given(
    p=st.sampled_from(PRIMES),
    rows=st.integers(0, 9),
    cols=st.integers(0, 9),
    rank=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_rref_property(p, rows, cols, rank, seed):
    m = random_matrix(np.random.default_rng(seed), (rows, cols), p, rank=rank)
    r, pivots = linalg.rref(m, p)
    want, want_pivots = sympy_rref(m, p)
    assert pivots == want_pivots
    assert np.array_equal(r, want)
    # the row space is kept: r is reachable from m and back
    basis = linalg.nullspace(m, p)
    assert not ((r @ basis.T) % p).any()
