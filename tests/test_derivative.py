"""Matrix-function derivatives: the symbolic expansion recursion, its
regression data, the one-integral evaluation against independent oracles,
and the paper's expansion (``expansion_reference``) as an identity."""

import math
import random
from fractions import Fraction

import pytest

from gmoical import (DerivativeError, Matrix, contour_oracle, exp_function,
                     frobenius_norm, gen_fixture, inverse,
                     lift_divided_difference, mat_mul, nth_derivative,
                     polynomial, power_function, rational_function)
from gmoical.analysis import StructureInstabilityError
from conftest import draw_fixture, float_matrix, rational_matrix
from expansion_reference import (GmoiTerm, ParameterPattern, build_expansion,
                                 expansion_derivative, expansion_oracle,
                                 gamma)

X, XN, XT, XTN = "X", "X_N", "X~", "X~_N"


def _as_sets(expansion):
    gmoi = {}
    cross = {}
    for t in expansion.terms:
        if isinstance(t, GmoiTerm):
            gmoi[t.pattern.slots] = t.coeff
        else:
            cross[(t.pattern.slots, t.order, t.pair_pos)] = t.coeff
    return gmoi, cross


class TestExpansion:
    def test_order_1_seed(self):
        gmoi, cross = _as_sets(build_expansion(1))
        assert gmoi == {(X, X): 1}
        assert cross == {}

    def test_order_2_verbatim(self):
        gmoi, cross = _as_sets(build_expansion(2))
        assert gmoi == {
            (X, X, X): 2,
            (X, XN, XN): -1,
            (XN, XN, X): -1,
        }
        assert cross == {
            ((XT, X, XT), 1, 0): -1,
            ((X, XT, X), 1, 1): -1,
        }

    def test_order_3_verbatim(self):
        gmoi, cross = _as_sets(build_expansion(3))
        assert gmoi == {
            (X, X, X, X): 6,
            (X, X, XN, XN): -3,
            (X, XN, XN, X): -2,
            (XN, XN, X, X): -3,
            (XN, XN, XN, XN): 2,
        }
        assert cross == {
            ((X, X, XT, X), 1, 2): -2,
            ((X, XT, X), 2, 1): -1,
            ((X, XT, X, XT), 1, 1): -2,
            ((XN, XN, XT, X), 1, 2): 1,
            ((XT, X, XT), 2, 0): -1,
            ((XT, X, XT, XT), 1, 0): -2,
            ((XT, X, XTN, XTN), 1, 0): 1,
        }

    def test_order_4_leading_coefficients(self):
        gmoi, _ = _as_sets(build_expansion(4))
        assert gmoi[(X,) * 5] == math.factorial(4)
        pair_patterns = [
            (XN, XN, X, X, X),
            (X, XN, XN, X, X),
            (X, X, XN, XN, X),
            (X, X, X, XN, XN),
        ]
        assert [gmoi[p] for p in pair_patterns] == [-12, -8, -8, -12]

    def test_all_x_coefficient_is_factorial(self):
        for n in range(1, 6):
            gmoi, _ = _as_sets(build_expansion(n))
            assert gmoi[(X,) * (n + 1)] == math.factorial(n)

    def test_gamma_counts_nilpotent_cross_terms(self):
        # gamma(rho) counts the correction terms of slot length rho that
        # contain a nilpotent letter
        for n in (3, 4, 5):
            _, cross = _as_sets(build_expansion(n))
            rho = n + 1
            count = len({slots for (slots, _, _) in cross
                         if len(slots) == rho
                         and any(s in (XN, XTN) for s in slots)})
            assert count == gamma(rho)

    def test_gamma_values(self):
        assert gamma(4) == 2
        assert gamma(5) == 6
        with pytest.raises(DerivativeError):
            gamma(3)

    def test_order_limits(self):
        with pytest.raises(DerivativeError):
            build_expansion(0)
        with pytest.raises(DerivativeError):
            build_expansion(99)
        x, _ = gen_fixture([(1.0, [2])], seed=0)
        f = polynomial([0.0, 1.0])
        with pytest.raises(DerivativeError, match="order must be >= 1"):
            nth_derivative(f, x, x, 0)

    def test_pattern_validation(self):
        with pytest.raises(DerivativeError):
            ParameterPattern(("X",))
        with pytest.raises(DerivativeError):
            ParameterPattern(("X", "bogus"))


class TestFirstDerivative:
    def test_against_fd_oracle(self):
        # the contour oracle took the finite difference's place
        rng = random.Random(0)
        fns = [polynomial([0.0, 0.0, 1.0]),
               polynomial([0.0, 0.0, 0.0, 1.0]),
               polynomial([1.0 / math.factorial(k) for k in range(9)])]
        for _ in range(6):
            m, _ = draw_fixture(rng, 3, max_block=2, exact=False,
                                distinct=True)
            y = float_matrix(rng, 3)
            for f in fns:
                got = nth_derivative(f, m, y, 1)
                want = contour_oracle(f, m, y, 1)
                assert frobenius_norm(got - want) <= \
                    1e-12 * frobenius_norm(want)

    def test_exact_diagonalizable(self):
        rng = random.Random(1)
        _, dec = gen_fixture([(Fraction(1), [1]), (Fraction(2), [1, 1])],
                             seed=4, exact=True)
        x = dec.reconstruct()
        y = rational_matrix(rng, 3)
        f = polynomial([Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
        assert nth_derivative(f, x, y, 1) == expansion_oracle(f, x, y, 1)


class TestNthDerivative:
    def test_exact_rational_diagonalizable(self):
        rng = random.Random(2)
        f = polynomial([Fraction(1), Fraction(2), Fraction(-1), Fraction(1),
                        Fraction(0), Fraction(2)])
        for seed in range(3):
            _, dec = gen_fixture([(Fraction(seed), [1, 1]),
                                  (Fraction(seed + 2), [1])],
                                 seed=seed, exact=True)
            x = dec.reconstruct()
            y = rational_matrix(rng, 3)
            for n in (2, 3):
                assert nth_derivative(f, x, y, n) == \
                    expansion_oracle(f, x, y, n)

    def test_above_degree_gives_zero(self):
        rng = random.Random(3)
        f = polynomial([Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
        _, dec = gen_fixture([(Fraction(1), [1, 1, 1])], seed=1, exact=True)
        x = dec.reconstruct()
        y = rational_matrix(rng, 3)
        assert frobenius_norm(nth_derivative(f, x, y, 4)) <= 1e-10

    def test_structure_stable_jordan_float(self):
        x, y = _block_scalar_family()
        f = polynomial([0.0, 1.0, 1.0, 0.5, 0.25])
        for n in (2, 3):
            got = nth_derivative(f, x, y, n)
            want = expansion_oracle(f, x, y, n)
            assert frobenius_norm(got - want) <= 1e-5

    def test_exact_jordan_equals_oracle(self):
        # chain-3 X in rational mode: the one integral is exact
        rng = random.Random(8)
        f = polynomial([Fraction(1), Fraction(2), Fraction(-1), Fraction(1),
                        Fraction(0), Fraction(2)])
        for seed in range(3):
            _, dec = gen_fixture([(Fraction(seed - 1), [3]),
                                  (Fraction(seed + 1), [1])],
                                 seed=seed, exact=True)
            x = dec.reconstruct()
            y = rational_matrix(rng, 4)
            for n in (1, 2, 3, 4):
                got = nth_derivative(f, x, y, n)
                assert got.exact
                assert got == expansion_oracle(f, x, y, n)

    def test_generic_direction_on_jordan_x(self):
        # a generic Y splits X's Jordan block along X + tY; the derivative
        # at t=0 needs only X's decomposition
        x, y = _generic_family()
        f = polynomial([0.0, 1.0, 1.0, 0.5, 0.25])
        for n in (1, 2, 3, 4):
            want = expansion_oracle(f, x, y, n)
            got = nth_derivative(f, x, y, n)
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    @pytest.mark.parametrize("n", [9, 10])
    def test_high_order_on_jordan_block(self, n):
        # the order has no cap: a 2x2 Jordan block and a degree-12
        # polynomial, exact
        x = Matrix([[Fraction(1, 2), 1], [0, Fraction(1, 2)]], exact=True)
        y = Matrix([[1, Fraction(-2, 3)], [Fraction(3, 4), 2]], exact=True)
        f = polynomial([Fraction((-1) ** k * (k + 1), k + 2)
                        for k in range(13)])
        assert nth_derivative(f, x, y, n) == expansion_oracle(f, x, y, n)

    def test_order_past_the_slot_limit(self):
        # order 600 is 601 slots; the slot sum's recursion would overflow
        x = Matrix.identity(2, False).scale(2)
        with pytest.raises(ValueError, match="601 slots exceeds the limit "
                                             "of 250 slots"):
            nth_derivative(polynomial([0.0, 1.0]), x, x, 600)

    def test_structure_instability_detected(self):
        # a generic direction splits the Jordan block: the expansion's
        # corrections need X + tY's Jordan data, so it raises
        x, y = _generic_family()
        f = polynomial([0.0, 1.0, 1.0, 0.5])
        with pytest.raises(StructureInstabilityError):
            expansion_derivative(f, x, y, 2)


def _block_scalar_family(seed=9, shifts=(0.7, -0.4)):
    """(X, Y) with X Jordan and Y = V E V^-1, E constant on the chains of
    each eigenvalue: X + tY keeps X's Jordan signature near t=0."""
    _, dec = gen_fixture([(0.5, [2]), (2.0, [1])], seed=seed, exact=False)
    shift = dict(zip(dec.eigenvalues, shifts))
    diag = [shift[b.eigenvalue] for b in dec.blocks for _ in range(b.order)]
    e = [[complex(diag[i]) if i == j else 0j for j in range(3)]
         for i in range(3)]
    v = dec.transform
    y = mat_mul(mat_mul(v, Matrix(e, exact=False)), inverse(v))
    return dec.reconstruct(), y


def _generic_family():
    """(X, Y) with X Jordan and a generic Y, which splits X's block."""
    _, dec = gen_fixture([(0.5, [2]), (2.0, [1])], seed=9, exact=False)
    return dec.reconstruct(), float_matrix(random.Random(5), 3)


class TestExpansionReference:
    """The paper's expansion, evaluated term by term with numerically
    differentiated corrections, gives the same derivative as the one
    integral wherever the family keeps X's Jordan structure."""

    def test_agrees_on_block_scalar_families(self):
        rng = random.Random(10)
        f = polynomial([0.0, 1.0, 1.0, 0.5, 0.25])
        for seed in range(3):
            shifts = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            x, y = _block_scalar_family(seed, shifts)
            for n in (2, 3):
                ref = expansion_derivative(f, x, y, n)
                assert frobenius_norm(ref - nth_derivative(f, x, y, n)) <= 1e-5

    def test_agrees_on_self_direction(self):
        # X + tX = (1 + t) X keeps the Jordan structure of X
        _, dec = gen_fixture([(Fraction(1), [2]), (Fraction(2), [1])],
                             seed=1, exact=True)
        x = dec.reconstruct()
        f = polynomial([Fraction(1, 2), Fraction(-1), Fraction(1, 3),
                        Fraction(1), Fraction(1, 4)])
        for n in (1, 2, 3):
            got = nth_derivative(f, x, x, n).to_float()
            assert frobenius_norm(expansion_derivative(f, x, x, n) - got) \
                <= 1e-5

    def test_agrees_exactly_when_diagonalizable(self):
        rng = random.Random(11)
        f = polynomial([Fraction(1), Fraction(2), Fraction(-1), Fraction(1)])
        _, dec = gen_fixture([(Fraction(1), [1, 1]), (Fraction(3), [1])],
                             seed=2, exact=True)
        x = dec.reconstruct()
        y = rational_matrix(rng, 3)
        for n in (1, 2, 3):
            assert expansion_derivative(f, x, y, n) == \
                nth_derivative(f, x, y, n)


class TestOracles:
    def test_expansion_oracle_vs_fd(self):
        # the two independent oracles agree on a generic float matrix
        rng = random.Random(6)
        f = polynomial([0.5, -1.0, 2.0, 1.0])
        m = float_matrix(rng, 3)
        y = float_matrix(rng, 3)
        for n in (1, 2, 3):
            a = expansion_oracle(f, m, y, n)
            b = contour_oracle(f, m, y, n)
            assert frobenius_norm(a - b) <= 1e-12 * frobenius_norm(a)

    def test_contour_vs_expansion_on_jordan_x(self):
        # exact Jordan fixtures: the exact expansion, converted to float
        rng = random.Random(12)
        f = polynomial([Fraction(1), Fraction(2), Fraction(-1), Fraction(1),
                        Fraction(0), Fraction(2)])
        for seed, structure in enumerate(([(Fraction(0), [3]),
                                           (Fraction(2), [1])],
                                          [(Fraction(-1), [2]),
                                           (Fraction(1), [2])],
                                          [(Fraction(1), [2, 1])])):
            _, dec = gen_fixture(structure, seed=seed, exact=True)
            x = dec.reconstruct()
            y = rational_matrix(rng, x.dim)
            for n in (1, 2, 3, 4):
                want = expansion_oracle(f, x, y, n).to_float()
                got = contour_oracle(f, x, y, n)
                assert frobenius_norm(got - want) <= \
                    1e-12 * frobenius_norm(want)

    def test_fd_oracle_rational_function(self):
        # f = 1/(2 - z) on a contraction, against the resolvent product
        rng = random.Random(7)
        f = rational_function([1.0], [2.0, -1.0])
        m = float_matrix(rng, 2).scale(0.2)
        y = float_matrix(rng, 2).scale(0.1)
        got = contour_oracle(f, m, y, 1)
        # first derivative of (2I - M)^{-1} along Y is (2I-M)^{-1} Y (2I-M)^{-1}
        ident = type(m).identity(2, False)
        r = inverse(ident.scale(2) - m)
        want = mat_mul(mat_mul(r, y), r)
        assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    def test_float_derivative_on_jordan_x(self):
        # a generic Y splits X's Jordan block; the derivative at t=0 needs
        # X's decomposition only, and no symbol kind needs more
        x, y = _generic_family()
        for f in (exp_function(), rational_function([1.0], [4.0, -1.0]),
                  power_function(3),
                  polynomial([0.0, 1.0, 1.0, 0.5, 0.25])):
            for n in (1, 2):
                want = contour_oracle(f, x, y, n)
                got = nth_derivative(f, x, y, n)
                assert frobenius_norm(got - want) <= \
                    1e-12 * frobenius_norm(want)

    def test_pole_between_eigenvalues(self):
        # no circle centred at 1 holds -1 and 3 but leaves out the pole:
        # one circle per eigenvalue
        x = Matrix([[-1, 0], [0, 3]], exact=False)
        y = float_matrix(random.Random(13), 2)
        for f in (rational_function([1.0], [-1.5, 1.0]), power_function(-1)):
            want = nth_derivative(f, x, y, 1)
            got = contour_oracle(f, x, y, 1)
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    def test_pole_beside_a_jordan_block(self):
        # z^-2 on eigenvalues 1/2 (chain 2) and 2: the pole at 0 is as far
        # from the mean 1 as the spectrum, so the clusters get a circle each
        x = Matrix([[0.5, 1, 0], [0, 0.5, 0], [0, 0, 2]], exact=False)
        y = float_matrix(random.Random(16), 3)
        f = power_function(-2)
        for n in (1, 2):
            want = nth_derivative(f, x, y, n)
            got = contour_oracle(f, x, y, n)
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    def test_order_0_lift_keeps_the_poles(self):
        # 1/(z - 5/2) lifted to order 0 is the same function: its pole
        # must bound the circle as the unlifted function's does
        x = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]], exact=False)
        y = Matrix([[1, 2, 0], [0, 1, -1], [3, 0, 1]], exact=False)
        f = rational_function([1.0], [-2.5, 1.0])
        for n in (1, 2):
            want = nth_derivative(f, x, y, n)
            got = contour_oracle(lift_divided_difference(f, 0), x, y, n)
            assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)

    def test_pole_on_an_eigenvalue(self):
        x = Matrix([[-1, 0], [0, 3]], exact=False)
        y = float_matrix(random.Random(13), 2)
        f = rational_function([1.0], [-3.0, 1.0])
        with pytest.raises(DerivativeError,
                           match=r"pole \(3[+-]0j\) of f lies on"):
            contour_oracle(f, x, y, 1)
        with pytest.raises(DerivativeError, match="pole 0j of f lies on"):
            contour_oracle(power_function(-1), x - x, y, 1)

    def test_pole_next_to_the_spectrum(self):
        # a circle between spectrum and pole converges too slowly to
        # settle below the node cap
        x = Matrix([[-1, 0], [0, 1]], exact=False)
        y = float_matrix(random.Random(14), 2)
        near = rational_function([1.0], [-1.001, 1.0])
        with pytest.raises(DerivativeError, match="did not settle"):
            contour_oracle(near, x, y, 1)
        far = rational_function([1.0], [-1.01, 1.0])
        want = nth_derivative(far, x, y, 1)
        assert frobenius_norm(contour_oracle(far, x, y, 1) - want) <= \
            1e-12 * frobenius_norm(want)

    def test_zero_derivative(self):
        # above the degree the sum is rounding noise: it settles at once
        rng = random.Random(15)
        f = polynomial([0.5, -1.0, 2.0])
        for _ in range(20):
            m, _ = draw_fixture(rng, 4, max_block=3, exact=False)
            y = float_matrix(rng, 4)
            got = contour_oracle(f, m, y, 3)
            assert frobenius_norm(got) <= 1e-12 * frobenius_norm(y) ** 3
