"""The exact decomposition against sympy's Jordan form: the same
transform V and the same chains, compared with ==."""

from fractions import Fraction as F

import pytest

from gmoical import QC, Matrix, decompose, gen_fixture

pytest.importorskip("sympy")

from sympy_jordan_reference import decompose_reference  # noqa: E402

THIRD, M27 = F(1, 3), F(-2, 7)
G1, G2 = QC(1, 1), QC(F(1, 2), F(-1, 3))

# (eigenvalue, [chain lengths]) structures, dims 1-8 with chains <= 3,
# several chains per eigenvalue, and one dim-12 structure
STRUCTURES = [
    [(F(2), [1])],
    [(F(-1), [2])],
    [(THIRD, [2]), (F(3), [1])],
    [(M27, [1, 1]), (F(1), [1])],
    [(G1, [1]), (G1.conjugate(), [1])],
    [(G2, [2]), (F(-2), [1])],
    [(F(1), [2, 1]), (F(-1), [1])],
    [(F(2), [2, 2])],
    [(THIRD, [1, 1, 1]), (M27, [1])],
    [(G1, [2]), (F(0), [1, 1])],
    [(F(-2), [3, 1]), (F(1), [1])],
    [(F(3), [2, 2, 1])],
    [(M27, [3]), (THIRD, [2])],
    [(G2, [1, 1]), (F(1), [2, 1])],
    [(F(0), [3, 2, 1])],
    [(F(1), [2, 2]), (F(-1), [1, 1])],
    [(THIRD, [3, 1]), (F(2), [2])],
    [(G1, [1]), (F(-2), [2, 1])],
    [(F(-1), [3, 3, 1])],
    [(F(2), [2, 1]), (M27, [2, 1, 1])],
    [(F(1), [3, 2, 2, 1])],
    [(THIRD, [2, 2]), (F(-2), [3, 1])],
    [(F(0), [6])],
    [(F(1), [4, 3]), (F(-1), [3, 2])],
]


def _assert_same(x):
    dec, ref = decompose(x), decompose_reference(x)
    assert dec.transform == ref.transform
    assert dec.blocks == ref.blocks
    assert dec.reconstruct() == x


@pytest.mark.parametrize("seed, structure", enumerate(STRUCTURES))
def test_matches_sympy(seed, structure):
    x, _ = gen_fixture(structure, seed=seed, exact=True)
    _assert_same(x)


def test_zero_matrix():
    _assert_same(Matrix.zeros(4, exact=True))
