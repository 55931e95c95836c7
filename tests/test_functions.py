"""Scalar symbols: polynomials, rationals, partial derivatives, confluent
divided differences and their lifts."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmoical import (FunctionError, GmoiProblem, MultiFunction,
                     divided_difference, eval_gmoi, exp_function,
                     function_from_json, gen_fixture, lift_divided_difference,
                     multivariate_polynomial, polynomial, power_function,
                     product_symbol, QC, random_matrix, rational_function,
                     separable_product, slot_options)


class TestPolynomials:
    def test_eval_exact(self):
        f = polynomial([Fraction(1), Fraction(-2), Fraction(3)])
        assert f.eval(Fraction(2)) == Fraction(9)

    def test_partials_match_calculus(self):
        f = polynomial([0, 0, 0, 1])          # z^3
        assert f.partial((1,), (2.0,)) == pytest.approx(12.0)
        assert f.partial((2,), (2.0,)) == pytest.approx(12.0)
        assert f.partial((3,), (2.0,)) == pytest.approx(6.0)
        assert f.partial((4,), (2.0,)) == 0

    def test_rational_function_leibniz(self):
        # f = 1 / (1 + z): f^(k)(z) = (-1)^k k! / (1+z)^(k+1)
        f = rational_function([1], [1, 1])
        for k in range(4):
            want = (-1) ** k * math.factorial(k) / (1.5) ** (k + 1)
            assert f.partial((k,), (0.5,)) == pytest.approx(want)

    def test_power(self):
        f = power_function(4)
        assert f.eval(3.0) == pytest.approx(81.0)
        assert f.partial((2,), (3.0,)) == pytest.approx(108.0)

    def test_exp_derivatives(self):
        f = exp_function()
        for k in range(4):
            assert f.partial((k,), (0.3,)) == pytest.approx(math.exp(0.3))

    def test_multivariate_partials(self):
        f = multivariate_polynomial(2, [(1, (2, 1))])    # z1^2 z2
        assert f.eval(2.0, 3.0) == pytest.approx(12.0)
        assert f.partial((1, 0), (2.0, 3.0)) == pytest.approx(12.0)
        assert f.partial((1, 1), (2.0, 3.0)) == pytest.approx(4.0)
        assert f.partial((3, 0), (2.0, 3.0)) == 0


class TestDividedDifference:
    def test_first_order_quotient(self):
        f = polynomial([0, 0, 1])             # z^2
        # f[a,b] = a + b
        assert divided_difference(f, [Fraction(1), Fraction(3)]) == Fraction(4)

    def test_symmetry(self):
        f = polynomial([1, 2, 0, 1])
        nodes = [0.3, -1.2, 2.0]
        base = divided_difference(f, nodes)
        rng = random.Random(0)
        for _ in range(4):
            p = nodes[:]
            rng.shuffle(p)
            assert divided_difference(f, p) == pytest.approx(base, rel=1e-12)

    def test_confluent_equals_derivative(self):
        f = polynomial([0, 0, 0, 1])          # z^3
        # f[z,z] = f'(z)
        assert divided_difference(f, [Fraction(2), Fraction(2)]) == Fraction(12)
        # f[z,z,z] = f''(z)/2
        assert divided_difference(
            f, [Fraction(2)] * 3) == Fraction(6)

    def test_leading_coefficient_full_confluence(self):
        for d in range(1, 6):
            coeffs = [Fraction(k + 1) for k in range(d)] + [Fraction(7, 3)]
            f = polynomial(coeffs)
            got = divided_difference(f, [Fraction(1, 2)] * (d + 1))
            assert got == Fraction(7, 3)

    def test_degree_annihilation(self):
        f = polynomial([Fraction(2), Fraction(0), Fraction(5)])   # degree 2
        assert divided_difference(f, [Fraction(k) for k in range(4)]) == 0

    def test_many_nodes(self):
        # one level per node, without recursion; the levels above the
        # degree are zero
        f = polynomial([1, 1])
        nodes = [Fraction(k) for k in range(1500)]
        assert divided_difference(f, nodes) == 0
        g = polynomial([0, 0, 0, 1])            # f[z_0..z_k] = 0 for k > 3
        assert divided_difference(g, nodes[:6]) == 0
        assert divided_difference(g, nodes[:4]) == 1
        assert divided_difference(g, nodes[:3]) == sum(nodes[:3])

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_exact(self, nodes):
        f = polynomial([Fraction(1), Fraction(0), Fraction(-1), Fraction(2)])
        nodes = [Fraction(z) for z in nodes]
        whole = divided_difference(f, nodes)
        left = divided_difference(f, nodes[:-1])
        right = divided_difference(f, nodes[1:])
        assert whole * (nodes[0] - nodes[-1]) == left - right

    def test_far_node_between_near_equal_nodes(self):
        # sorted by (real, imag) the far node lies between two nodes that
        # are equal within tol; the run must not be taken as confluent
        f = polynomial([0, 0, 0, 1])          # z^3: f[a, b, c] = a + b + c
        a, far, b = 1, 1 + 1e-10 + 5j, 1 + 2e-10
        got = divided_difference(f, [a, far, b])
        # the confluent rule replaces f[a, b] by f'(a) = 3
        want = ((b * b + b * far + far * far) - 3) / (far - a)
        assert abs(got - want) < 1e-12
        # merging a and b, 2e-10 apart, moves the value by about 1.2e-10
        assert abs(got - (a + far + b)) < 1e-9

    def test_first_order_identity_float(self):
        # f[... , lam, ...] - f[... , mu, ...] = (lam - mu) f[..., lam, mu, ...]
        rng = random.Random(1)
        f = polynomial([0.5, -1.0, 2.0, 1.0, 0.25])
        for _ in range(25):
            base = [rng.uniform(-2, 2) for _ in range(3)]
            lam, mu = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = (divided_difference(f, base[:1] + [lam] + base[1:])
                   - divided_difference(f, base[:1] + [mu] + base[1:]))
            rhs = (lam - mu) * divided_difference(
                f, base[:1] + [lam, mu] + base[1:])
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestLift:
    def test_lift_matches_dd(self):
        f = polynomial([0, 0, 0, 1])
        g = lift_divided_difference(f, 2)
        assert g.arity == 3
        nodes = (0.5, 1.5, -0.25)
        assert g.eval(*nodes) == pytest.approx(divided_difference(f, list(nodes)))

    def test_lift_partial_confluence(self):
        f = polynomial([Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
        g = lift_divided_difference(f, 1)
        # d/dz1 f[z1, z2] at z1=z2=z equals f[z,z,z] = f''(z)/2
        got = g.partial((1, 0), (Fraction(2), Fraction(2)))
        assert got == Fraction(6)


def _counted(base):
    """``base`` with a log of every value and derivative it computes."""
    calls = []

    def ev(args):
        calls.append(0)
        return base.eval(*args)

    def pt(orders, args):
        calls.append(orders[0])
        return base.partial(orders, args)

    return MultiFunction(1, ev, pt, kind="counted"), calls


def _exact_problem(beta):
    """A fixed exact problem, arity 3, with chains up to 3 and eigenvalues
    shared between slots."""
    F = Fraction
    decs = [gen_fixture(s, seed=seed, exact=True)[1] for s, seed in (
        ([(F(1), [3, 1]), (F(2), [1])], 1),
        ([(F(1), [2]), (F(-1), [2, 1])], 2),
        ([(F(2), [2, 1]), (F(1), [2])], 3))]
    rng = random.Random(4)
    args = [random_matrix(rng, 5, exact=True) for _ in range(2)]
    return GmoiProblem(beta, decs, args)


class TestTabulated:
    F_COEFFS = [0.5, -1.0, 0.3, 1.0, 0.25, -0.125]

    def _assert_same(self, lift, nodes, arity, max_q):
        tab = lift.tabulated()
        rng = random.Random(5)
        for orders in itertools.product(range(max_q + 1), repeat=arity):
            for _ in range(3):
                args = [rng.choice(nodes) for _ in range(arity)]
                assert tab.partial(orders, args) == lift.partial(orders, args)
            assert tab.eval(*args) == lift.eval(*args)

    def test_float_equal_including_merged_nodes(self):
        f = polynomial(self.F_COEFFS)
        nodes = [0.5, 0.5 + 1e-11, -1.25, 2 + 1j, 2 + 1j + 3e-10j, 2 - 1j]
        self._assert_same(lift_divided_difference(f, 2), nodes, 3, 3)

    def test_exact_equal(self):
        f = polynomial([Fraction(c) for c in self.F_COEFFS])
        nodes = [QC(1), QC(-2), QC(1, 1), QC(Fraction(1, 2), -1)]
        self._assert_same(lift_divided_difference(f, 1), nodes, 2, 3)

    def test_copies_and_closed_forms(self):
        lift = lift_divided_difference(polynomial([1, 2, 3]), 1)
        tab = lift.tabulated()
        assert tab is not lift and tab.tabulated() is tab
        assert lift.tabulated() is not tab          # a fresh table each time
        closed = multivariate_polynomial(2, [(1, (1, 1))])
        assert closed.tabulated() is closed
        moi = product_symbol(lift, 1)
        sep = separable_product(closed, [lift], [[0, 1], [2, 3]])
        for wrapper in (moi, sep):
            wrapped = wrapper.tabulated()
            assert wrapped is not wrapper and wrapped.tabulated() is wrapped
        plain = separable_product(closed, [closed], [[0, 1], [2, 3]])
        assert plain.tabulated() is plain
        moi_tab, sep_tab = moi.tabulated(), sep.tabulated()
        args = (0.5, 1.5, -0.25, 2.0)
        for orders in itertools.product(range(3), repeat=4):
            assert sep_tab.partial(orders, args) == sep.partial(orders, args)
            assert moi_tab.partial(orders[:3], args[:3]) == \
                moi.partial(orders[:3], args[:3])

    def test_table_lives_for_one_call(self):
        f, calls = _counted(polynomial([1, -2, 0, 1, 1]))
        beta = lift_divided_difference(f, 2)
        problem = _exact_problem(beta)
        first = eval_gmoi(problem)
        n = len(calls)
        assert n
        calls.clear()
        assert eval_gmoi(problem) == first
        assert len(calls) == n                      # started empty again
        assert problem.beta is beta
        lams = [d.eigenvalues[0] for d in problem.params]
        counts = []
        for _ in range(2):                          # the caller's symbol
            calls.clear()                           # keeps no table
            beta.partial((1, 2, 0), lams)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_one_base_call_per_distinct_confluent_run(self):
        f, calls = _counted(polynomial([1, -2, 0, 1, 1]))
        problem = _exact_problem(lift_divided_difference(f, 2))
        runs = set()
        for combo in itertools.product(*(slot_options(d)
                                         for d in problem.params)):
            mult = {}
            for c in combo:
                mult[c.eigenvalue] = mult.get(c.eigenvalue, 0) + c.order + 1
            if len(mult) == 1:
                (z, m), = mult.items()
                runs.add((z, m))
            else:
                runs.update((z, s) for z, m in mult.items()
                            for s in range(1, m + 1))
        eval_gmoi(problem)
        assert len(calls) == len(runs)


class TestJson:
    def test_polynomial_roundtrip(self):
        f = function_from_json({"kind": "polynomial",
                                "coeffs": [[1, 0], ["1/2", 0], [0, 1]]})
        z = 2.0
        assert f.eval(z) == pytest.approx(1 + 0.5 * z + 1j * z * z)

    def test_dd_lift(self):
        f = function_from_json({"kind": "dd-lift", "order": 1,
                                "base": {"kind": "power", "degree": 2}})
        assert f.eval(1.0, 3.0) == pytest.approx(4.0)

    def test_polynomial_multi(self):
        f = function_from_json({
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [1, 1]}]})
        assert f.eval(2.0, 5.0) == pytest.approx(10.0)

    def test_unknown_kind(self):
        with pytest.raises(FunctionError):
            function_from_json({"kind": "nope"})


class TestIntegerArguments:
    """The constructors check their integer arguments themselves, so a
    library call fails like the JSON field it comes from."""

    @pytest.mark.parametrize("build, field", [
        (lambda: power_function(2.7), "degree"),
        (lambda: power_function(True), "degree"),
        (lambda: multivariate_polynomial(1.0, [(1, (1,))]), "arity"),
        (lambda: multivariate_polynomial(0, []), "arity"),
        (lambda: multivariate_polynomial(1, [(1, (-1,))]), "exponent"),
        (lambda: multivariate_polynomial(1, [(1, (True,))]), "exponent"),
        (lambda: lift_divided_difference(polynomial([0, 1]), 1.5), "order"),
        (lambda: lift_divided_difference(polynomial([0, 1]), -1), "order"),
        (lambda: product_symbol(multivariate_polynomial(2, [(1, (1, 0))]),
                                True), "zeta"),
    ])
    def test_rejected(self, build, field):
        with pytest.raises(FunctionError, match=f"{field} must be"):
            build()

    def test_integers_accepted(self):
        assert power_function(-2).eval(2.0) == pytest.approx(0.25)
        assert lift_divided_difference(polynomial([0, 1]), 0).arity == 1
        beta = multivariate_polynomial(2, [(1, (1, 0))])
        assert product_symbol(beta, 1).arity == 3
