"""Shared towers and reference modules; session-scoped so field tables,
residue fields, and splitting extensions are built once."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from drinfeld.fields import FieldTower
from drinfeld.modules import DrinfeldModule
from drinfeld.polys import Poly

# Every run draws the same examples (seeded from each test's own code, no
# example database), so suite time and outcomes do not move between runs of
# one tree.  Each test keeps its own max_examples and deadline.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def tower3():
    return FieldTower(3, max_degree=4096)


@pytest.fixture(scope="session")
def tower2():
    return FieldTower(2, max_degree=2048)


@pytest.fixture(scope="session")
def tower5():
    return FieldTower(5, max_degree=1024)


@pytest.fixture(scope="session")
def tower9():
    return FieldTower(9, max_degree=512)


@pytest.fixture(scope="session")
def tower25():
    return FieldTower(25, max_degree=512)


@pytest.fixture(scope="session")
def psi3(tower3):
    """psi_T = T + tau + tau^2 over F_3."""
    one = Poly.one(tower3.base_field)
    return DrinfeldModule(tower3, [one, one])


@pytest.fixture(scope="session")
def psi3_nog1(tower3):
    """psi_T = T + tau^2 over F_3."""
    F = tower3.base_field
    return DrinfeldModule(tower3, [Poly.zero(F), Poly.one(F)])


@pytest.fixture(scope="session")
def psi2_rank3(tower2):
    """psi_T = T + tau + tau^3 over F_2."""
    F = tower2.base_field
    return DrinfeldModule(tower2, [Poly.one(F), Poly.zero(F), Poly.one(F)])


@contextmanager
def _within(seconds):
    def fail(signum, frame):
        raise AssertionError(f"did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def deadline():
    """``with deadline(s):`` fails the test if the block runs longer than s
    seconds, instead of letting a hang stall the suite."""
    return _within
