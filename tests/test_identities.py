"""The three exact identities of the abstract, in exact mode on Jordan
parameters: the commutator formula, the trace formula and the Taylor
remainder. Each residual must be exactly zero. f(A) and f'(A) come from
Horner's rule, not from the engine."""

import random
from fractions import Fraction

import pytest

from gmoical import (QC, GmoiProblem, eval_gmoi, frobenius_norm,
                     gen_fixture, lift_divided_difference, mat_mul,
                     polynomial, random_matrix)
from conftest import horner

F = Fraction

# eight pairs of dim-4 structures, chains <= 3, every pair with different
# Jordan structures
PAIRS = [
    ([(1, [3]), (2, [1])], [(0, [2, 2])]),
    ([(1, [2, 1]), (-1, [1])], [(2, [3, 1])]),
    ([(0, [3, 1])], [(1, [1]), (-1, [1]), (2, [2])]),
    ([(2, [1]), (0, [3])], [(1, [2]), (-2, [2])]),
    ([(1, [1, 1]), (-1, [2])], [(0, [1]), (3, [3])]),
    ([(3, [2]), (1, [2])], [(1, [2, 1, 1])]),
    ([(-1, [1]), (1, [1]), (2, [2])], [(-1, [3]), (0, [1])]),
    ([(2, [2, 2])], [(2, [3]), (1, [1])]),
]
QUINTIC = [F(1), F(-2), F(1, 2), F(3), F(-1), F(1, 3)]


def _pair(k):
    rng = random.Random(300 + k)
    out = []
    for structure in PAIRS[k]:
        structure = [(F(lam), lengths) for lam, lengths in structure]
        out.append(gen_fixture(structure, seed=rng.randrange(2 ** 30),
                               exact=True))
    (a, a_dec), (b, b_dec) = out
    return a, a_dec, b, b_dec, random_matrix(rng, 4, exact=True)


def _derivative(coeffs):
    return [c * k for k, c in enumerate(coeffs)][1:]


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_commutator(k):
    # T^{A,B}_{f^[1]}(AY - YB) = f(A) Y - Y f(B)
    a, a_dec, b, b_dec, y = _pair(k)
    lhs = eval_gmoi(GmoiProblem(lift_divided_difference(
        polynomial(QUINTIC), 1), (a_dec, b_dec),
        (mat_mul(a, y) - mat_mul(y, b),)))
    rhs = mat_mul(horner(QUINTIC, a), y) - mat_mul(y, horner(QUINTIC, b))
    assert frobenius_norm(lhs - rhs) == 0


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_trace(k):
    # tr T^{A,A}_{f^[1]}(Y) = tr(f'(A) Y)
    a, a_dec, _, _, y = _pair(k)
    t = eval_gmoi(GmoiProblem(lift_divided_difference(
        polynomial(QUINTIC), 1), (a_dec, a_dec), (y,)))
    want = mat_mul(horner(_derivative(QUINTIC), a), y)
    residual = sum((t.rows[i][i] - want.rows[i][i] for i in range(4)),
                   QC(0))
    assert residual == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_taylor_remainder(k, n):
    # f(A) - f(B) - sum_{1 <= j < n} T^{B,...,B}_{f^[j]}(V, ..., V)
    #   = T^{A,B,...,B}_{f^[n]}(V, ..., V), V = A - B
    a, a_dec, b, b_dec, _ = _pair(k)
    f = polynomial(QUINTIC)
    v = a - b
    lhs = horner(QUINTIC, a) - horner(QUINTIC, b)
    for j in range(1, n):
        lhs = lhs - eval_gmoi(GmoiProblem(lift_divided_difference(f, j),
                                          (b_dec,) * (j + 1), (v,) * j))
    rhs = eval_gmoi(GmoiProblem(lift_divided_difference(f, n),
                                (a_dec,) + (b_dec,) * n, (v,) * n))
    assert frobenius_norm(lhs - rhs) == 0
