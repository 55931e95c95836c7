"""Norm bounds, Lipschitz estimates, perturbation identities, cross-term
assemblers, and the continuity experiment."""

import random
from fractions import Fraction

import pytest

from gmoical import (GmoiProblem, StructureInstabilityError,
                     continuity_experiment, eval_gmoi,
                     frobenius_norm, gen_fixture, lift_divided_difference,
                     lipschitz_check, norm_report, operational_cross_term,
                     perturbation_check_gdoi, perturbation_check_general,
                     multivariate_polynomial, polynomial, random_matrix,
                     reverse_triangle_lower)
from gmoical import Matrix
from gmoical.analysis import AnalysisError, _pattern_uppers
from conftest import (bound_domain_dec, draw_fixture, float_matrix,
                      rational_matrix, unit_beta)
from cross_term_reference import explicit_cross_term
from norm_bound_reference import (beta_min, lipschitz_bound,
                                  min_beta_lower, pattern_uppers)


def _poly_lift(rng, zeta, exact=True):
    if exact:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(4)] + [
            Fraction(1)]
    else:
        coeffs = [rng.uniform(-1, 1) for _ in range(4)] + [1.0]
    return lift_divided_difference(polynomial(coeffs), zeta)


class TestNormBounds:
    def test_reverse_triangle(self):
        assert reverse_triangle_lower([]) == 0.0
        assert reverse_triangle_lower([5.0, 1.0, 2.0]) == 2.0
        assert reverse_triangle_lower([1.0, 1.0, 1.0]) == 0.0

    def test_bounds_sandwich(self):
        rng = random.Random(0)
        for _ in range(15):
            zeta = rng.choice((1, 2))
            decs = [bound_domain_dec(rng, 3)[1] for _ in range(zeta + 1)]
            args = [float_matrix(rng, 3) for _ in range(zeta)]
            beta = _poly_lift(rng, zeta, exact=False)
            rep = norm_report(GmoiProblem(beta, decs, args))
            slack = 1e-8 * (1.0 + rep.upper_bound)
            assert rep.sorted_lower <= rep.actual_norm + slack
            assert rep.actual_norm <= rep.upper_bound + slack
            if rep.condition_holds:
                assert rep.min_beta_lower is not None
                assert rep.min_beta_lower <= rep.actual_norm + slack
            else:
                assert rep.min_beta_lower is None

    def test_upper_bound_gap_on_nonnormal_fixtures(self):
        # the projector-fold upper bound assumes either orthogonal
        # eigenprojectors or a single eigenvalue per parameter; on
        # non-normal multi-eigenvalue fixtures it can be exceeded, so we
        # flag that regime rather than assert the sandwich there
        rng = random.Random(16)
        violated = False
        for _ in range(40):
            zeta = rng.choice((1, 2))
            decs = [draw_fixture(rng, 3, max_block=2, exact=False,
                                 distinct=True)[1] for _ in range(zeta + 1)]
            args = [float_matrix(rng, 3) for _ in range(zeta)]
            beta = _poly_lift(rng, zeta, exact=False)
            rep = norm_report(GmoiProblem(beta, decs, args))
            if rep.actual_norm > rep.upper_bound * (1 + 1e-9):
                violated = True
                break
        assert violated

    def test_min_beta_lower_diagonal_tight(self):
        # diagonalizable parameters: the dominance lower bound is exact
        rng = random.Random(1)
        _, d1 = gen_fixture([(Fraction(2), [1]), (Fraction(3), [1])],
                            seed=1, exact=True)
        beta = unit_beta(2, 1)          # beta = z1, min |beta| = 2
        y = rational_matrix(rng, 2)
        rep = norm_report(GmoiProblem(beta, (d1, d1), (y,)))
        assert rep.condition_holds
        assert rep.min_beta_lower <= rep.actual_norm + 1e-12


class TestLipschitz:
    def test_bound_dominates(self):
        rng = random.Random(2)
        for _ in range(20):
            zeta = rng.choice((1, 2))
            decs = [bound_domain_dec(rng, 3)[1] for _ in range(zeta + 1)]
            args = [float_matrix(rng, 3) for _ in range(zeta)]
            alt = [float_matrix(rng, 3) for _ in range(zeta)]
            beta = _poly_lift(rng, zeta, exact=False)
            actual, bound = lipschitz_check(
                GmoiProblem(beta, decs, args), alt)
            assert actual <= bound + 1e-8 * (1.0 + bound)

    def test_equal_arguments_give_zero(self):
        rng = random.Random(3)
        decs = [draw_fixture(rng, 3, max_block=2, exact=True)[1]
                for _ in range(2)]
        args = [rational_matrix(rng, 3)]
        beta = _poly_lift(rng, 1)
        actual, _ = lipschitz_check(GmoiProblem(beta, decs, args), args)
        assert actual == 0.0

    def test_bound_is_telescoped_upsilon(self):
        rng = random.Random(6)
        for zeta in (1, 2):
            decs = [draw_fixture(rng, 3, max_block=2)[1]
                    for _ in range(zeta + 1)]
            args = [float_matrix(rng, 3) for _ in range(zeta)]
            alt = [float_matrix(rng, 3) for _ in range(zeta)]
            problem = GmoiProblem(_poly_lift(rng, zeta, exact=False), decs,
                                  args)
            _, bound = lipschitz_check(problem, alt)
            ups = norm_report(problem).upsilon
            want = 0.0
            for i in range(zeta):
                term = ups * frobenius_norm(args[i] - alt[i])
                for j in range(i):
                    term *= frobenius_norm(alt[j])
                for j in range(i + 1, zeta):
                    term *= frobenius_norm(args[j])
                want += term
            assert bound == want

    def test_shape_mismatch(self):
        rng = random.Random(4)
        decs = [draw_fixture(rng, 2, max_block=1, exact=True)[1]
                for _ in range(2)]
        p = GmoiProblem(_poly_lift(rng, 1), decs, [rational_matrix(rng, 2)])
        with pytest.raises(AnalysisError):
            lipschitz_check(p, [])


def _size2_fixtures(exact=True):
    _, c = gen_fixture([(Fraction(1), [2]), (Fraction(2), [2])], seed=1,
                       exact=exact)
    _, d = gen_fixture([(Fraction(0), [2]), (Fraction(3), [2])], seed=2,
                       exact=exact)
    _, x1 = gen_fixture([(Fraction(-1), [2]), (Fraction(3), [2])], seed=5,
                        exact=exact)
    return c, d, x1


def _small_pair_fixtures():
    _, c = gen_fixture([(Fraction(1), [2]), (Fraction(-1), [1])], seed=3,
                       exact=True)
    _, d = gen_fixture([(Fraction(0), [3])], seed=4, exact=True)
    _, x1 = gen_fixture([(Fraction(1), [2, 1])], seed=6, exact=True)
    return c, d, x1


class TestBoundAgainstReference:
    """The bounds read their grid peaks off the coefficient table; the
    reference takes one partial per grid point. Chains are at most 3, so
    prod(orders!) is a power of two and the two agree bit for bit."""

    @staticmethod
    def _problems(exact):
        rng = random.Random(60 + exact)
        for zeta in (1, 2, 1, 2):
            dim = rng.choice((3, 4))
            decs = [draw_fixture(rng, dim, max_block=3, exact=exact)[1]
                    for _ in range(zeta + 1)]
            args = [random_matrix(rng, dim, exact=exact)
                    for _ in range(zeta)]
            alt = [random_matrix(rng, dim, exact=exact) for _ in range(zeta)]
            for beta in (_poly_lift(rng, zeta, exact), multivariate_polynomial(
                    zeta + 1, [(2, (2,) * (zeta + 1)), (-1, (1,) * zeta + (3,)),
                               (1, (0,) * (zeta + 1))])):
                yield GmoiProblem(beta, decs, args), alt

    @pytest.mark.parametrize("exact", [False, True])
    def test_norm_report_and_lipschitz(self, exact):
        n = 0
        for problem, alt in self._problems(exact):
            want = pattern_uppers(problem)
            rep = norm_report(problem)
            assert rep.per_pattern_upper == [up for up, _ in want]
            assert rep.upper_bound == sum(up for up, _ in want)
            assert rep.upsilon == sum(sc for _, sc in want)
            assert _pattern_uppers(problem.tabulated())[1] == beta_min(
                problem)
            assert rep.min_beta_lower == min_beta_lower(
                problem, rep.per_pattern_norms)
            assert rep.condition_holds == (rep.min_beta_lower is not None)
            assert lipschitz_check(problem, alt)[1] == lipschitz_bound(
                problem, alt)
            n += 1
        assert n == 8


class TestCrossTerms:
    def test_projector_label_display_matches_defining_form(self):
        # the (C_P, D_P)-labelled display agrees with its defining
        # rearrangement, exactly, for both flank modes
        rng = random.Random(5)
        c, d, x1 = _size2_fixtures()
        y = rational_matrix(rng, 4)
        f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                        Fraction(1)])
        b1 = lift_divided_difference(f, 1)
        b2 = lift_divided_difference(f, 2)
        for mode in ("P", "N"):
            ex = explicit_cross_term(b1, b2, [(x1, mode)], 0, c, d, False,
                                     [y])
            op = operational_cross_term(b1, b2, [(x1, mode)], 0, c, d, False,
                                        [y])
            assert ex == op

    def test_nilpotent_label_display_flagged(self):
        # the (C_N, D_N)-labelled display deviates from the defining
        # rearrangement on nontrivial nilpotent structure; we flag the
        # discrepancy rather than silently equating the two assemblers
        rng = random.Random(6)
        c, d, x1 = _size2_fixtures()
        y = rational_matrix(rng, 4)
        f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                        Fraction(1)])
        b1 = lift_divided_difference(f, 1)
        b2 = lift_divided_difference(f, 2)
        gaps = []
        for mode in ("P", "N"):
            ex = explicit_cross_term(b1, b2, [(x1, mode)], 0, c, d, True, [y])
            op = operational_cross_term(b1, b2, [(x1, mode)], 0, c, d, True,
                                        [y])
            gaps.append(frobenius_norm(ex - op))
        assert max(gaps) > 1e-6

    def test_both_assemblers_vanish_for_diagonalizable_pair(self):
        rng = random.Random(7)
        _, c = gen_fixture([(Fraction(1), [1, 1])], seed=3, exact=True)
        _, d = gen_fixture([(Fraction(2), [1, 1])], seed=4, exact=True)
        _, x1 = gen_fixture([(Fraction(0), [2])], seed=5, exact=True)
        y = rational_matrix(rng, 2)
        f = polynomial([Fraction(0), Fraction(1), Fraction(1)])
        b1 = lift_divided_difference(f, 1)
        b2 = lift_divided_difference(f, 2)
        for nil_pair in (False, True):
            for mode in ("P", "N"):
                ex = explicit_cross_term(b1, b2, [(x1, mode)], 0, c, d,
                                         nil_pair, [y])
                op = operational_cross_term(b1, b2, [(x1, mode)], 0, c, d,
                                            nil_pair, [y])
                assert ex.is_zero()
                assert op.is_zero()


class TestPerturbation:
    def test_first_order_exact_zero(self):
        rng = random.Random(8)
        c, d, x1 = _size2_fixtures()
        y = rational_matrix(rng, 4)
        f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                        Fraction(1)])
        rep = perturbation_check_gdoi(lift_divided_difference(f, 1),
                                      lift_divided_difference(f, 2),
                                      c, d, x1, y)
        assert rep.residual == 0.0
        assert len(rep.corrections) == 4
        assert len(rep.trailing) == 2

    def test_first_order_float(self):
        rng = random.Random(9)
        c, d, x1 = _size2_fixtures(exact=False)
        y = float_matrix(rng, 4)
        f = polynomial([0.0, 1.0, 2.0, 0.0, 1.0])
        rep = perturbation_check_gdoi(lift_divided_difference(f, 1),
                                      lift_divided_difference(f, 2),
                                      c, d, x1, y)
        assert rep.residual <= 1e-8

    def test_interior_slot_exact_zero(self):
        rng = random.Random(10)
        c, d, _ = _size2_fixtures()
        _, p1 = gen_fixture([(Fraction(0), [2]), (Fraction(1), [2])],
                            seed=11, exact=True)
        _, p2 = gen_fixture([(Fraction(2), [2]), (Fraction(-1), [2])],
                            seed=13, exact=True)
        f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                        Fraction(1)])
        rep = perturbation_check_general(
            lift_divided_difference(f, 2), lift_divided_difference(f, 3),
            [p1, p2], 2, c, d,
            [rational_matrix(rng, 4), rational_matrix(rng, 4)])
        assert rep.residual == 0.0
        assert len(rep.corrections) == 8
        assert len(rep.trailing) == 4

    def test_first_order_labels(self):
        rng = random.Random(13)
        c, d, x1 = _small_pair_fixtures()
        f = polynomial([Fraction(0), Fraction(1), Fraction(0), Fraction(1)])
        y = rational_matrix(rng, 3)
        rep = perturbation_check_gdoi(lift_divided_difference(f, 1),
                                      lift_divided_difference(f, 2),
                                      c, d, x1, y)
        assert list(rep.corrections) == [
            "X[C_P,D_P,X1_P]", "X[C_P,D_P,X1_N]",
            "X[C_N,D_N,X1_P]", "X[C_N,D_N,X1_N]"]
        assert list(rep.trailing) == ["T[C_N,D_N,X1_P]", "T[C_N,D_N,X1_N]"]
        diff = c.reconstruct() - d.reconstruct()
        big = GmoiProblem(lift_divided_difference(f, 2), (c, d, x1),
                          (diff, y))
        for mode in ("P", "N"):
            assert rep.trailing[f"T[C_N,D_N,X1_{mode}]"] == eval_gmoi(
                big, modes=("N", "N", mode))
            assert rep.corrections[f"X[C_N,D_N,X1_{mode}]"] == \
                operational_cross_term(
                    lift_divided_difference(f, 1),
                    lift_divided_difference(f, 2), [(x1, mode)], 0, c, d,
                    True, [y])

    def test_interior_slot_labels(self):
        rng = random.Random(14)
        c, d, x1 = _small_pair_fixtures()
        _, x2 = gen_fixture([(Fraction(2), [1, 1]), (Fraction(0), [1])],
                            seed=15, exact=True)
        f = polynomial([Fraction(1), Fraction(0), Fraction(1)])
        small, big = (lift_divided_difference(f, 2),
                      lift_divided_difference(f, 3))
        args = [rational_matrix(rng, 3), rational_matrix(rng, 3)]
        rep = perturbation_check_general(small, big, [x1, x2], 2, c, d, args)
        assert list(rep.corrections) == [
            f"X[X1_{left},{pair},X2_{right}]" for left in ("P", "N")
            for pair in ("C_P,D_P", "C_N,D_N") for right in ("P", "N")]
        assert list(rep.trailing) == [
            f"T[X1_{left},C_N,D_N,X2_{right}]" for left in ("P", "N")
            for right in ("P", "N")]
        diff = c.reconstruct() - d.reconstruct()
        problem = GmoiProblem(big, (x1, c, d, x2), (args[0], diff, args[1]))
        for left in ("P", "N"):
            for right in ("P", "N"):
                assert rep.trailing[f"T[X1_{left},C_N,D_N,X2_{right}]"] == \
                    eval_gmoi(problem, modes=(left, "N", "N", right))
        assert rep.corrections["X[X1_N,C_P,D_P,X2_P]"] == \
            operational_cross_term(small, big, [(x1, "N"), (x2, "P")], 1, c,
                                   d, False, args)

    def test_diagonalizable_corrections_vanish(self):
        rng = random.Random(11)
        _, c = gen_fixture([(Fraction(1), [1, 1]), (Fraction(2), [1, 1])],
                           seed=7, exact=True)
        _, d = gen_fixture([(Fraction(0), [1]), (Fraction(3), [1, 1, 1])],
                           seed=8, exact=True)
        _, x1 = gen_fixture([(Fraction(-1), [1, 1, 1, 1])], seed=9,
                            exact=True)
        y = rational_matrix(rng, 4)
        f = polynomial([Fraction(0), Fraction(1), Fraction(2), Fraction(0),
                        Fraction(1)])
        rep = perturbation_check_gdoi(lift_divided_difference(f, 1),
                                      lift_divided_difference(f, 2),
                                      c, d, x1, y)
        assert rep.residual == 0.0
        for m in rep.corrections.values():
            assert frobenius_norm(m) == 0.0

    def test_interior_slot_validation(self):
        rng = random.Random(12)
        c, d, x1 = _size2_fixtures()
        f = polynomial([Fraction(0), Fraction(1)])
        with pytest.raises(AnalysisError):
            perturbation_check_general(
                lift_divided_difference(f, 1), lift_divided_difference(f, 2),
                [x1], 1, c, d, [rational_matrix(rng, 4)])


class TestContinuity:
    def _problem(self, rng):
        decs = [draw_fixture(rng, 3, max_block=1, exact=False,
                             distinct=True)[1] for _ in range(2)]
        args = [float_matrix(rng, 3)]
        beta = _poly_lift(rng, 1, exact=False)
        return GmoiProblem(beta, decs, args)

    def test_residuals_shrink(self):
        rng = random.Random(13)
        p = self._problem(rng)
        dirs = [float_matrix(rng, 3).scale(0.02) for _ in range(2)]
        steps = [2.0 ** -l for l in range(1, 13)]
        rep = continuity_experiment(p, dirs, steps)
        assert len(rep.residuals) == 12
        for a, b in zip(rep.residuals[2:], rep.residuals[3:]):
            assert b < a
        assert rep.residuals[-1] <= 1e-3 * rep.residuals[0]
        assert rep.slope == pytest.approx(1.0, abs=0.2)

    def test_zero_direction(self):
        rng = random.Random(14)
        p = self._problem(rng)
        zero = float_matrix(rng, 3).scale(0.0)
        rep = continuity_experiment(p, [zero, zero], [0.5, 0.25])
        assert max(rep.residuals) <= 1e-9

    def test_structure_change_detected(self):
        # a direction that splits a double eigenvalue changes the signature
        rng = random.Random(15)
        _, d1 = gen_fixture([(1.0, [1, 1])], seed=1, exact=False)
        _, d2 = gen_fixture([(2.0, [1, 1])], seed=2, exact=False)
        beta = lift_divided_difference(polynomial([0.0, 1.0, 1.0]), 1)
        p = GmoiProblem(beta, (d1, d2), (float_matrix(rng, 2),))
        splitter = Matrix([[complex(1), complex(0)],
                           [complex(0), complex(-1)]], exact=False)
        with pytest.raises(StructureInstabilityError):
            continuity_experiment(p, [splitter, splitter], [0.25])
