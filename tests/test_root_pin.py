"""Pinned roots: residue-field T-images and tower embedding matrices.

Both are lex-smallest roots (by integer code) of an irreducible polynomial
inside a tower field, and every reduction, torsion basis and survey line is
written in the coordinates they fix.  Each case uses a fresh tower, because
an embedding composes through the intermediate fields already registered.

At prime q above the table limit the residue field is F_q[x]/(p) itself,
with T-image x, so there the pinned code is the root ``lex_min_root`` finds
in the tower field of the same degree: the root an embedding of the residue
field into a tower field starts from.
"""

import numpy as np
import pytest

from drinfeld.fields import TABLE_LIMIT, FieldTower
from drinfeld.modules import ResidueField
from drinfeld.polys import Poly, lex_min_root

# (q, prime low-first as F_q codes, int code of the T-image in F_p)
T_IMAGES = [
    (2, [0, 1], 0),
    (2, [1, 1], 1),
    (2, [1, 1, 1], 2),
    (2, [1, 1, 0, 1], 2),
    (2, [1, 0, 1, 1], 3),
    (2, [1, 1, 0, 0, 1], 2),
    (2, [1, 0, 0, 1, 1], 9),
    (2, [1, 1, 1, 1, 1], 8),
    (2, [1, 0, 1, 0, 0, 1], 2),
    (2, [1, 0, 0, 1, 0, 1], 9),
    (2, [1, 1, 1, 1, 0, 1], 6),
    (2, [1, 1, 0, 0, 0, 0, 1], 2),
    (2, [1, 0, 0, 1, 0, 0, 1], 6),
    (2, [1, 1, 1, 0, 1, 0, 1], 3),
    (3, [0, 1], 0),
    (3, [1, 1], 2),
    (3, [2, 1], 1),
    (3, [1, 0, 1], 3),
    (3, [2, 1, 1], 4),
    (3, [2, 2, 1], 5),
    (3, [1, 2, 0, 1], 3),
    (3, [2, 2, 0, 1], 6),
    (3, [2, 0, 1, 1], 11),
    (3, [2, 1, 0, 0, 1], 3),
    (3, [2, 2, 0, 0, 1], 6),
    (3, [2, 0, 1, 0, 1], 15),
    (4, [0, 1], 0),
    (4, [1, 1], 1),
    (4, [2, 1], 2),
    (4, [2, 1, 1], 2),
    (4, [3, 1, 1], 4),
    (4, [1, 2, 1], 10),
    (4, [2, 0, 0, 1], 11),
    (4, [3, 0, 0, 1], 6),
    (4, [1, 1, 0, 1], 14),
    (9, [0, 1], 0),
    (9, [1, 1], 2),
    (9, [2, 1], 1),
    (9, [4, 0, 1], 30),
    (9, [5, 0, 1], 36),
    (9, [7, 0, 1], 51),
]

# q = 3, degrees 10..12: residue fields above the table limit (numpy path)
T_IMAGES_LARGE = [
    (3, [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1], 3),
    (3, [2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1], 4014),
    (3, [2, 1, 2, 1, 2, 2, 2, 2, 0, 1, 1], 9795),
    (3, [2, 1, 0, 1, 1, 1, 1, 2, 1, 0, 1], 20289),
    (3, [2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 3),
    (3, [1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1], 18),
    (3, [2, 1, 1, 1, 2, 0, 1, 0, 2, 0, 2, 1], 5579),
    (3, [2, 1, 0, 0, 2, 0, 1, 1, 0, 0, 2, 1], 24320),
    (3, [2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 3),
    (3, [2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 20199),
    (3, [2, 0, 2, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1], 95010),
    (3, [1, 1, 0, 0, 2, 1, 2, 1, 0, 0, 2, 0, 1], 7636),
]

# characteristic 2 above the table limit: F_(2^15), F_(2^16) and F_(4^8),
# where the split gcd takes relative traces by repeated squaring
T_IMAGES_LARGE_CHAR2 = [
    (2, [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1], 2650),
    (2, [1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1], 3020),
    (2, [1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1], 5680),
    (2, [1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1], 3284),
    (4, [2, 1, 2, 0, 0, 1, 0, 2, 1], 2745),
    (4, [3, 0, 0, 3, 1, 1, 0, 3, 1], 9378),
]

# (q, sub degree, sup degree over the prime field, int codes of the columns
#  x^j -> root^j of the embedding matrix)
EMBEDDINGS = [
    (2, 1, 5, [1]),
    (2, 5, 60, [1, 59122829275001189, 296728025217554386, 61979349145084367,
                162528248152547636]),
    (2, 3, 24, [1, 58028, 279372]),
    (2, 4, 36, [1, 47336094294, 64515898189, 40886151957]),
    (2, 2, 28, [1, 18994554]),
    (4, 4, 12, [1, 8, 64, 512]),
    (4, 2, 10, [1, 236]),
    (9, 2, 6, [1, 129]),
    (9, 4, 12, [1, 31578, 364488, 213939]),
]


@pytest.mark.parametrize("q,prime,code", T_IMAGES + T_IMAGES_LARGE + T_IMAGES_LARGE_CHAR2)
def test_t_image_pinned(q, prime, code):
    tower = FieldTower(q, max_degree=64)
    F = tower.base_field
    p = Poly(F, [F.dec_elem(c) for c in prime])
    res = ResidueField(tower, p)
    n = p.degree()
    assert p.map_coeffs(lambda c: tower.embed(c, res.ctx), res.ctx).eval(res.t_image).is_zero()
    if tower.base_degree > 1 or q**n <= TABLE_LIMIT:
        assert res.ctx is tower.field(n * tower.base_degree)
        assert res.t_image.int_code() == code
        return
    # the own modulus: F_p = F_q[x]/(p), T -> x, no field of the tower
    assert res.ctx.fid.modulus == tuple(prime)
    assert res.t_image == tower.gen(res.ctx)
    assert res.ctx is not tower._fields.get(n)
    assert res.reduce(p).is_zero()
    assert res.reduce(p * p + Poly.x(F)) == res.reduce(Poly.x(F)) == res.t_image
    big = tower.field(n)
    root = lex_min_root(p, big, lambda c: tower.embed(c, big), "not prime")
    assert root.int_code() == code


@pytest.mark.parametrize("q,sub,sup,columns", EMBEDDINGS)
def test_embedding_matrix_pinned(q, sub, sup, columns):
    tower = FieldTower(q, max_degree=128)
    big = tower.field(sup)
    emb = tower.embedding(tower.field(sub), big)
    expected = np.array([big.dec(c) for c in columns], dtype=np.int64).T
    assert emb.matrix.shape == (sup, sub)
    assert np.array_equal(emb.matrix, expected)
