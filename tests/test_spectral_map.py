"""Spectral-sum evaluation of matrix functions: univariate/multivariate
correctness against direct polynomial evaluation, and the term budget."""

import itertools
import random
from fractions import Fraction

import pytest

from gmoical import (BudgetExceededError, GmoiProblem, Matrix, decompose,
                     effective_budget, eval_gmoi, eval_multivariate,
                     eval_univariate, frobenius_norm, gen_fixture,
                     lift_divided_difference, mat_mul, moi_as_spectral_map,
                     multivariate_polynomial, polynomial, product_symbol,
                     random_matrix, slot_options)
from gmoical.spectral_map import eval_slot_sum
from conftest import draw_fixture, horner
from slot_sum_reference import chain_pattern_sums, restrict


class TestUnivariate:
    def test_exact_polynomial_exact_equality(self):
        rng = random.Random(0)
        for _ in range(10):
            _, dec = draw_fixture(rng, rng.randint(2, 5), max_block=3,
                                  exact=True)
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 6))]
            f = polynomial(coeffs)
            assert eval_univariate(f, dec) == horner(coeffs, dec.reconstruct())

    def test_float_polynomial(self):
        rng = random.Random(1)
        for _ in range(10):
            m, dec = draw_fixture(rng, 4, max_block=2, exact=False,
                                  distinct=True)
            coeffs = [rng.uniform(-1, 1) for _ in range(5)]
            got = eval_univariate(polynomial(coeffs), dec)
            want = horner(coeffs, m)
            denom = max(frobenius_norm(want), 1.0)
            assert frobenius_norm(got - want) / denom <= 1e-10

    def test_identity_function(self):
        _, dec = gen_fixture([(Fraction(2), [2]), (Fraction(-1), [1])],
                             seed=3, exact=True)
        f = polynomial([Fraction(0), Fraction(1)])
        assert eval_univariate(f, dec) == dec.reconstruct()

    def test_nilpotent_truncation(self):
        # on a single 2x2 Jordan block, f(X) = f(l) P + f'(l) N
        _, dec = gen_fixture([(Fraction(3), [2])], seed=5, exact=True)
        f = polynomial([Fraction(0)] * 4 + [Fraction(1)])      # z^4
        b = dec.blocks[0]
        want = b.projector.scale(Fraction(81)) + b.nilpotent.scale(
            Fraction(108))
        assert eval_univariate(f, dec) == want


class TestMultivariate:
    def test_product_symbol_gives_matrix_product(self):
        rng = random.Random(2)
        f = multivariate_polynomial(2, [(1, (1, 1))])
        for _ in range(6):
            m1, d1 = draw_fixture(rng, 3, max_block=2, exact=False,
                                  distinct=True)
            m2, d2 = draw_fixture(rng, 3, max_block=2, exact=False,
                                  distinct=True)
            got = eval_multivariate(f, [d1, d2])
            assert frobenius_norm(got - mat_mul(m1, m2)) <= 1e-9

    def test_sum_symbol(self):
        rng = random.Random(3)
        f = multivariate_polynomial(2, [(1, (1, 0)), (1, (0, 1))])
        m1, d1 = draw_fixture(rng, 3, max_block=2, exact=True)
        m2, d2 = draw_fixture(rng, 3, max_block=2, exact=True)
        assert eval_multivariate(f, [d1, d2]) == m1 + m2

    def test_separable_vs_direct(self):
        # f(z1, z2) = z1^2 z2 equals X1^2 X2
        rng = random.Random(4)
        f = multivariate_polynomial(2, [(1, (2, 1))])
        m1, d1 = draw_fixture(rng, 3, max_block=2, exact=True)
        m2, d2 = draw_fixture(rng, 3, max_block=2, exact=True)
        want = mat_mul(mat_mul(m1, m1), m2)
        assert eval_multivariate(f, [d1, d2]) == want


class TestSlotOptions:
    def test_modes(self):
        _, dec = gen_fixture([(Fraction(1), [2]), (Fraction(2), [1])],
                             seed=1, exact=True)
        full = slot_options(dec, "full")
        proj = slot_options(dec, "P")
        nil = slot_options(dec, "N")
        assert len(proj) == 2           # one projector per block
        assert len(nil) == 1            # only the size-2 block has N^1
        assert len(full) == 3
        assert all(o.order == 0 for o in proj)
        assert all(o.order >= 1 for o in nil)


class TestSlotSumInputs:
    """The walk reads its slot options, dimension and arithmetic off the
    decompositions it is given."""

    def test_empty_restriction_gives_exact_zeros(self):
        _, dec = gen_fixture([(Fraction(1), [1]), (Fraction(2), [1])],
                             seed=0, exact=True)
        assert slot_options(dec, "N") == []
        f = polynomial([Fraction(1), Fraction(1)])
        sums = eval_slot_sum(f, [dec], keys=[("N",)])
        assert sums == {("N",): Matrix.zeros(2, True)}
        assert sums[("N",)].exact

    def test_empty_slot_among_others(self):
        rng = random.Random(2)
        _, diag = gen_fixture([(Fraction(1), [1]), (Fraction(2), [1])],
                              seed=0, exact=True)
        _, jordan = gen_fixture([(Fraction(3), [2])], seed=1, exact=True)
        beta = lift_divided_difference(polynomial(_coeffs(rng, True)), 1)
        y = random_matrix(rng, 2, exact=True)
        keys = [("N", "full"), ("full", "full")]
        sums = eval_slot_sum(beta, [diag, jordan], interleave=[y], keys=keys)
        assert sums[keys[0]] == Matrix.zeros(2, True)
        assert sums[keys[1]] == eval_gmoi(GmoiProblem(beta, (diag, jordan),
                                                      (y,)))

    def test_exact_full_walk(self):
        _, dec = gen_fixture([(Fraction(3), [2]), (Fraction(-1), [1])],
                             seed=5, exact=True)
        coeffs = [Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(2)]
        got = eval_slot_sum(polynomial(coeffs), [dec])
        assert got.exact
        assert got == horner(coeffs, dec.reconstruct())


class TestBudget:
    def test_budget_exceeded(self):
        _, dec = gen_fixture([(Fraction(1), [1]), (Fraction(2), [1]),
                              (Fraction(3), [1])], seed=0, exact=True)
        f = polynomial([Fraction(1), Fraction(1)])
        with pytest.raises(BudgetExceededError):
            eval_univariate(f, dec, budget=2)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GMOI_BUDGET", "123")
        assert effective_budget(None) == 123
        assert effective_budget(7) == 7

    def test_negative_budget(self, monkeypatch):
        monkeypatch.delenv("GMOI_BUDGET", raising=False)
        assert effective_budget(0) == 0
        with pytest.raises(ValueError, match="term budget -1 is negative"):
            effective_budget(-1)
        monkeypatch.setenv("GMOI_BUDGET", "-3")
        with pytest.raises(ValueError, match="GMOI_BUDGET -3 is negative"):
            effective_budget(None)

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("GMOI_BUDGET", "abc")
        with pytest.raises(ValueError,
                           match="GMOI_BUDGET='abc' is not an integer"):
            effective_budget(None)


class TestSlotLimit:
    """The contraction recurses once per slot: past a quarter of the
    recursion limit a slot sum raises ValueError instead of overflowing
    the stack."""

    @staticmethod
    def _problem(slots):
        dec = decompose(Matrix.identity(2, False).scale(2))
        return (multivariate_polynomial(slots, [(1.0, (1,) * slots)]),
                [dec] * slots)

    def test_at_the_limit(self):
        f, decs = self._problem(250)
        got = eval_multivariate(f, decs)
        assert frobenius_norm(got - Matrix.identity(2, False).scale(
            2.0 ** 250)) <= 1e-13 * 2.0 ** 250

    def test_past_the_limit(self):
        f, decs = self._problem(600)
        with pytest.raises(ValueError, match="600 slots exceeds the limit "
                                             "of 250 slots"):
            eval_multivariate(f, decs)


# Several chains per eigenvalue, of different lengths and of equal
# lengths above 1, so that one per-eigenvalue option covers several chains
# at every order; by dimension. Slot j takes structure j mod 2.
MULTI_CHAIN = {
    3: ([(1, [2, 1])], [(0, [1, 1, 1])]),
    4: ([(1, [2, 1]), (-1, [1])], [(0, [2, 2])]),
    5: ([(1, [3, 1]), (0, [1])], [(2, [2, 2]), (-1, [1])]),
    6: ([(1, [3, 1]), (0, [1, 1])], [(2, [2, 2]), (-1, [1, 1])]),
}


def _multi_chain_decs(count, dim, exact, rng):
    decs = []
    for j in range(count):
        structure = [(Fraction(lam) if exact else complex(lam), lengths)
                     for lam, lengths in MULTI_CHAIN[dim][j % 2]]
        decs.append(gen_fixture(structure, seed=rng.randrange(2 ** 30),
                                exact=exact)[1])
    return decs


def _coeffs(rng, exact, degree=4):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(degree + 1)]
    return coeffs if exact else [float(c) for c in coeffs]


def _assert_matches(got, want, exact):
    if exact:
        assert got == want
    else:
        err = frobenius_norm(got - want) / max(frobenius_norm(want), 1.0)
        assert err <= 1e-12


class TestJordanCoordinates:
    """The per-eigenvalue evaluation in Jordan coordinates against the
    dense per-chain walk of ``slot_sum_reference``."""

    # (zeta, exact dim, float dim): exact arithmetic on dense per-chain
    # terms is slow, so exact mode keeps zeta = 3 to dim 3
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("zeta,exact_dim,float_dim",
                             [(0, 6, 6), (1, 4, 6), (2, 4, 5), (3, 3, 4)])
    def test_gmoi_every_pattern(self, exact, zeta, exact_dim, float_dim):
        rng = random.Random(10 * zeta + exact)
        decs = _multi_chain_decs(zeta + 1, exact_dim if exact else float_dim,
                                 exact, rng)
        dim = decs[0].dim
        f = polynomial(_coeffs(rng, exact))
        if zeta == 0:
            want = chain_pattern_sums(f, decs, [])
            for mode in ("P", "N", "full"):
                _assert_matches(
                    eval_slot_sum(f, [decs[0]], keys=[(mode,)])[(mode,)],
                    restrict(want, (mode,), dim, exact), exact)
            _assert_matches(eval_univariate(f, decs[0]),
                            restrict(want, ("full",), dim, exact), exact)
            return
        beta = lift_divided_difference(f, zeta)
        args = [random_matrix(rng, dim, exact=exact) for _ in range(zeta)]
        problem = GmoiProblem(beta, decs, args)
        want = chain_pattern_sums(beta, decs, args)
        patterns = (itertools.product(("P", "N", "full"), repeat=zeta + 1)
                    if zeta <= 2 else [("full",) * (zeta + 1)])
        for modes in patterns:
            _assert_matches(eval_gmoi(problem, modes=modes),
                            restrict(want, modes, dim, exact), exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_multivariate_without_arguments(self, exact):
        rng = random.Random(40 + exact)
        decs = _multi_chain_decs(3, 4, exact, rng)
        f = multivariate_polynomial(3, [(2, (2, 1, 0)), (-1, (0, 3, 1)),
                                        (1, (1, 1, 2))])
        want = chain_pattern_sums(f, decs, [None, None])
        _assert_matches(eval_multivariate(f, decs),
                        restrict(want, ("full",) * 3, 4, exact), exact)

    @pytest.mark.parametrize("exact", [False, True])
    def test_moi_as_spectral_map(self, exact):
        # the argument enters through its own decomposition; the product
        # symbol is linear in it, so the result is also the integral with
        # the reconstructed argument
        rng = random.Random(50 + exact)
        x1, y, x2 = _multi_chain_decs(3, 4, exact, rng)
        beta = lift_divided_difference(polynomial(_coeffs(rng, exact, 3)), 1)
        got = moi_as_spectral_map(beta, [x1, x2], [y])
        want = chain_pattern_sums(product_symbol(beta, 1), [x1, y, x2],
                                  [None, None])
        _assert_matches(got, restrict(want, ("full",) * 3, 4, exact), exact)
        _assert_matches(got, eval_gmoi(GmoiProblem(beta, [x1, x2],
                                                   [y.reconstruct()])),
                        exact)


def test_slot_sum_leaves_no_cyclic_garbage():
    # the tabulated symbol and its divided-difference table are freed when
    # the sum returns, not at a later full garbage collection
    import gc
    _, dec = gen_fixture([(1.0, [2]), (2.0, [1])], seed=1)
    y = random_matrix(random.Random(0), 3)
    beta = lift_divided_difference(polynomial([0.0, 1.0, 1.0, 0.5]), 1)
    problem = GmoiProblem(beta, (dec, dec), (y,))
    eval_gmoi(problem)
    gc.collect()
    gc.disable()
    try:
        eval_gmoi(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()
