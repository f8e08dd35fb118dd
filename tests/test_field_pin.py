"""Pinned tower moduli and log tables.

Every coordinate the package prints is read in the basis fixed by the
lex-smallest monic irreducible modulus of each tower field, and every text
exponent of z in the generator of F_q's log tables.  These pins hold both
fixed: the moduli as their nonzero coefficients {degree: coefficient}, and
for F_q the generator's coordinates and the sha256 of its exp table (codes of
g^k for k < 2(q - 1), as little-endian int64).
"""

import hashlib

import numpy as np
import pytest

from drinfeld import fields
from drinfeld.fields import FieldTower, lex_irreducible

MODULI = {
    (2, 2): {0: 1, 1: 1, 2: 1},
    (2, 3): {0: 1, 1: 1, 3: 1},
    (2, 4): {0: 1, 1: 1, 4: 1},
    (2, 5): {0: 1, 2: 1, 5: 1},
    (2, 6): {0: 1, 1: 1, 6: 1},
    (2, 7): {0: 1, 1: 1, 7: 1},
    (2, 8): {0: 1, 1: 1, 3: 1, 4: 1, 8: 1},
    (2, 9): {0: 1, 1: 1, 9: 1},
    (2, 10): {0: 1, 3: 1, 10: 1},
    (2, 11): {0: 1, 2: 1, 11: 1},
    (2, 12): {0: 1, 3: 1, 12: 1},
    (2, 13): {0: 1, 1: 1, 3: 1, 4: 1, 13: 1},
    (2, 14): {0: 1, 5: 1, 14: 1},
    (2, 15): {0: 1, 1: 1, 15: 1},
    (2, 16): {0: 1, 1: 1, 3: 1, 5: 1, 16: 1},
    (2, 17): {0: 1, 3: 1, 17: 1},
    (2, 18): {0: 1, 3: 1, 18: 1},
    (2, 19): {0: 1, 1: 1, 2: 1, 5: 1, 19: 1},
    (2, 20): {0: 1, 3: 1, 20: 1},
    (2, 64): {0: 1, 1: 1, 3: 1, 4: 1, 64: 1},
    (2, 315): {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 315: 1},
    (3, 2): {0: 1, 2: 1},
    (3, 3): {0: 1, 1: 2, 3: 1},
    (3, 4): {0: 2, 1: 1, 4: 1},
    (3, 5): {0: 1, 1: 2, 5: 1},
    (3, 6): {0: 2, 1: 1, 6: 1},
    (3, 7): {0: 2, 2: 1, 7: 1},
    (3, 8): {0: 2, 2: 1, 8: 1},
    (3, 9): {0: 1, 2: 1, 3: 2, 9: 1},
    (3, 10): {0: 1, 2: 2, 10: 1},
    (3, 11): {0: 2, 2: 1, 11: 1},
    (3, 12): {0: 2, 2: 1, 12: 1},
    (3, 13): {0: 1, 1: 2, 13: 1},
    (3, 14): {0: 2, 1: 1, 14: 1},
    (3, 40): {0: 2, 1: 1, 40: 1},
    (5, 2): {0: 2, 2: 1},
    (5, 3): {0: 1, 1: 1, 3: 1},
    (5, 4): {0: 2, 4: 1},
    (16381, 2): {0: 2, 2: 1},
    (16381, 3): {0: 2, 3: 1},
}

# q: (coordinates of z_generator, sha256 of the exp table)
LOG_TABLES = {
    2**14: ((1, 1, 1) + (0,) * 11, "661aa37bcc5b11f44be85b58c4ebd105ace68ce37249903a4f002081013b4978"),
    3**8: ((2, 0, 1, 1, 0, 0, 0, 0), "8b3ea094e11613e2778813ccebad338b2c7be7bc9ec8d3b6405b1d6762ce6f80"),
    5**4: ((1, 1, 0, 0), "8f29d9a1d9486a99e7a5cf754d5cd6c94fd9fd264acc5237a4b465dba5999f82"),
    16381: ((2,), "a325b6e27347a209d5a0e1769635d15173a6d39d6149112c0ad933ceb2478495"),
}


@pytest.mark.parametrize("p,d", list(MODULI), ids=[f"F{p}^{d}" for p, d in MODULI])
def test_lex_modulus_is_pinned(p, d, monkeypatch):
    monkeypatch.setattr(fields, "_LEX_CACHE", {})  # search afresh
    expected = tuple(MODULI[p, d].get(i, 0) for i in range(d + 1))
    assert lex_irreducible(p, d) == expected


@pytest.mark.parametrize("q", list(LOG_TABLES))
def test_log_tables_are_pinned(q):
    coords, digest = LOG_TABLES[q]
    tower = FieldTower(q)
    assert tower.z_generator().coords == coords
    exp, _ = tower.base_field._tables
    assert hashlib.sha256(np.ascontiguousarray(exp, dtype="<i8").tobytes()).hexdigest() == digest
