"""Operator-integral engine: sanity identities, pattern decompositions,
the Hermitian reduction, and the composition identity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from gmoical import (EngineError, GmoiProblem, Matrix, binary_selector,
                     decompose, eval_classical_moi, eval_gmoi,
                     frobenius_norm, gen_fixture, lift_divided_difference,
                     mat_mul, multivariate_polynomial, pattern_terms,
                     polynomial)
from conftest import (draw_fixture, float_matrix, ones_beta, rational_matrix,
                      unit_beta)
from engine_reference import compose_check, decompose_by_parameters


def _hermitian_dec(rng, dim):
    a = np.array([[rng.uniform(-1, 1) for _ in range(dim)]
                  for _ in range(dim)])
    h = (a + a.T) / 2
    m = Matrix([[complex(h[i, j]) for j in range(dim)] for i in range(dim)],
               exact=False)
    return m, decompose(m, tol=1e-8)


class TestSanityIdentities:
    def test_constant_symbol_gives_argument_product(self):
        rng = random.Random(0)
        for zeta in (1, 2):
            _, decs = None, [draw_fixture(rng, 3, max_block=2, exact=True)[1]
                             for _ in range(zeta + 1)]
            args = [rational_matrix(rng, 3) for _ in range(zeta)]
            got = eval_gmoi(GmoiProblem(ones_beta(zeta + 1), decs, args))
            want = args[0]
            for y in args[1:]:
                want = mat_mul(want, y)
            assert got == want

    def test_coordinate_symbol_inserts_parameter(self):
        rng = random.Random(1)
        zeta = 2
        ms, decs = [], []
        for _ in range(zeta + 1):
            m, d = draw_fixture(rng, 3, max_block=2, exact=True)
            ms.append(m)
            decs.append(d)
        args = [rational_matrix(rng, 3) for _ in range(zeta)]
        for j in range(1, zeta + 2):
            got = eval_gmoi(GmoiProblem(unit_beta(zeta + 1, j), decs, args))
            chain = [args[0], args[1]]
            chain.insert(j - 1, ms[j - 1])
            want = chain[0]
            for f in chain[1:]:
                want = mat_mul(want, f)
            assert frobenius_norm(got - want) == 0

    def test_hermitian_reduction(self):
        rng = random.Random(2)
        for zeta in (1, 2):
            decs = [_hermitian_dec(rng, 3)[1] for _ in range(zeta + 1)]
            args = [float_matrix(rng, 3) for _ in range(zeta)]
            beta = lift_divided_difference(polynomial([0, 1, 1, 0.5]), zeta)
            p = GmoiProblem(beta, decs, args)
            a = eval_gmoi(p)
            b = eval_classical_moi(p)
            assert frobenius_norm(a - b) <= 1e-10

    def test_classical_rejects_jordan_blocks(self):
        rng = random.Random(3)
        _, dec = gen_fixture([(Fraction(1), [2])], seed=0, exact=True)
        beta = lift_divided_difference(
            polynomial([Fraction(0), Fraction(1)]), 1)
        p = GmoiProblem(beta, (dec, dec), (rational_matrix(rng, 2),))
        with pytest.raises(EngineError):
            eval_classical_moi(p)


class TestPatternSums:
    def _problem(self, rng, zeta, dim=3):
        decs = [draw_fixture(rng, dim, max_block=2, exact=True)[1]
                for _ in range(zeta + 1)]
        args = [rational_matrix(rng, dim) for _ in range(zeta)]
        beta = multivariate_polynomial(
            zeta + 1,
            [(Fraction(rng.randint(-2, 2)), tuple(
                rng.randint(0, 2) for _ in range(zeta + 1)))
             for _ in range(3)])
        return GmoiProblem(beta, decs, args)

    def test_pattern_sum_equals_full(self):
        rng = random.Random(4)
        for zeta in (1, 2):
            p = self._problem(rng, zeta)
            total = Matrix.zeros(p.dim, True)
            terms = pattern_terms(p)
            assert len(terms) == 2 ** (zeta + 1)
            for _, t in terms:
                total = total + t
            assert total == eval_gmoi(p)

    def test_parameter_decomposition_sum(self):
        rng = random.Random(5)
        for zeta in (1, 2):
            p = self._problem(rng, zeta)
            parts = decompose_by_parameters(p)
            assert [i for i, _, _ in parts] == list(
                range(1, 2 ** (zeta + 1) + 1))
            # index i=2 restricts the first slot (least significant bit)
            assert parts[1][1][0] == "N"
            total = Matrix.zeros(p.dim, True)
            for _, _, t in parts:
                total = total + t
            assert total == eval_gmoi(p)

    def test_pattern_zero_is_all_projector(self):
        rng = random.Random(6)
        p = self._problem(rng, 1)
        (pat0, term0), *_ = pattern_terms(p)
        assert pat0.index == 0
        assert pat0.modes == ("P", "P")
        assert term0 == eval_gmoi(p, modes=("P", "P"))

    def test_binary_selector_msb_first(self):
        assert binary_selector(0, 3) == (0, 0, 0)
        assert binary_selector(1, 3) == (0, 0, 1)
        assert binary_selector(4, 3) == (1, 0, 0)


class TestComposition:
    def test_composition_identity(self):
        rng = random.Random(7)
        trials = 0
        for zeta in (1, 2):
            for dim in (2, 3):
                for _ in range(3):
                    decs = [draw_fixture(rng, dim, max_block=2, exact=False,
                                         distinct=True)[1]
                            for _ in range(zeta + 1)]
                    args = [float_matrix(rng, dim) for _ in range(zeta)]
                    f = multivariate_polynomial(
                        zeta + 1, [(1.0, tuple(rng.randint(0, 1)
                                               for _ in range(zeta + 1)))])
                    betas = [multivariate_polynomial(
                        zeta + 1, [(0.5, tuple(rng.randint(0, 1)
                                               for _ in range(zeta + 1)))])
                        for _ in range(zeta)]
                    lhs, rhs, residual = compose_check(f, betas, decs, args)
                    scale = max(frobenius_norm(rhs), 1.0)
                    assert residual / scale <= 1e-8
                    trials += 1
        assert trials == 12


class TestFloatAgainstExact:
    def test_eigenvalues_sharing_a_real_part(self):
        # The float decompositions give eigenvalue 1 as 1 - 6e-16j in one
        # parameter and 1 + 4e-16j in the other, and 1 - 2j sorts between
        # them: the divided differences must not take that run as confluent.
        entries = {
            "a": [[[1, 2], [0, -4], [0, 0]], [[0, 2], [1, -4], [0, 0]],
                  [[-2, 2], [3, -4], [0, 0]]],
            "b": [[[1, -2], [0, 2], [0, 2]], [[0, -2], [1, 2], [0, 2]],
                  [[0, 2], [0, -1], [1, -1]]],
        }
        beta = lift_divided_difference(polynomial(
            [Fraction(c) for c in (0, 2, 3, -3)]), 2)
        rng = random.Random(19)
        args = [rational_matrix(rng, 3) for _ in range(2)]
        results = []
        for exact in (False, True):
            decs = {k: decompose(Matrix.from_json({"dim": 3, "entries": e},
                                                  exact=exact), tol=1e-9)
                    for k, e in entries.items()}
            problem = GmoiProblem(beta, [decs["a"], decs["b"], decs["a"]],
                                  [a if exact else a.to_float()
                                   for a in args])
            results.append(eval_gmoi(problem).to_float())
        got, want = results
        assert frobenius_norm(got - want) <= 1e-9 * frobenius_norm(want)
