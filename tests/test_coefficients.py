"""The slot-sum walk's coefficient table against the per-term definition.

For every term of a full walk, the coefficient the walk read from its
table must equal symbol.partial(orders, eigenvalues) / prod(orders!) of
the untabulated symbol: ``==`` in exact mode, and ``==`` in float mode
when every order is at most 2 (then prod(orders!) is a power of two, so
the partial's q! round trip is exact). Higher float orders may differ by
an ulp.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from gmoical import (QC, Matrix, MultiFunction, decompose, exp_function,
                     gen_fixture, lift_divided_difference,
                     multivariate_polynomial, polynomial, product_symbol,
                     separable_product, slot_options)
from gmoical.spectral_map import eval_slot_sum

F = Fraction
EPS = sys.float_info.epsilon


def walk_coefficients(symbol, decs):
    """(orders, eigenvalues, coefficient) of every term of the walk of
    ``symbol`` over ``decs``, the coefficient read from the table the
    walk used, after the walk."""
    tables = []
    original = MultiFunction.coefficient_table

    def record(self, options):
        out = original(self, options)
        tables.append(out)
        return out

    MultiFunction.coefficient_table = record
    try:
        eval_slot_sum(symbol, decs)
    finally:
        MultiFunction.coefficient_table = original
    (parts, table), = tables
    options = [list(zip(slot_options(d), p)) for d, p in zip(decs, parts)]
    for combo in itertools.product(*options):
        yield ([c.order for c, _ in combo], [c.eigenvalue for c, _ in combo],
               table[sum(p for _, p in combo)])


def assert_per_term(symbol, decs, tabulated=None):
    """Every coefficient of the walk (of ``tabulated`` when given, else
    of ``symbol``) against ``symbol.partial``; the number of terms."""
    n = 0
    for orders, lams, got in walk_coefficients(tabulated or symbol, decs):
        want = symbol.partial(orders, lams) / math.prod(
            math.factorial(q) for q in orders)
        if decs[0].exact or max(orders) <= 2:
            assert got == want, (orders, lams)
        else:
            assert abs(got - want) <= 4 * EPS * abs(want), (orders, lams)
        n += 1
    return n


def _sharing_a_real_part():
    # eigenvalue 1 comes out as 1 - 6e-16j in one parameter and
    # 1 + 4e-16j in the other, and 1 - 2j sorts between them
    entries = {
        "a": [[[1, 2], [0, -4], [0, 0]], [[0, 2], [1, -4], [0, 0]],
              [[-2, 2], [3, -4], [0, 0]]],
        "b": [[[1, -2], [0, 2], [0, 2]], [[0, -2], [1, 2], [0, 2]],
              [[0, 2], [0, -1], [1, -1]]],
    }
    a, b = (decompose(Matrix.from_json({"dim": 3, "entries": e}), tol=1e-9)
            for e in entries.values())
    return [a, b, a]


def _near_equal_across_slots():
    # each slot's eigenvalues lie within NODE_TOL of the others'; the
    # third slot's 2 + 1j - 1e-9 sorts before 2 - 1j, so its near-equal
    # pair with the second slot's 2 + 1j spans 2 - 1j
    structures = ([(1.0, [3, 1]), (2 + 1j, [2]), (-0.5, [1])],
                  [(1.0 + 3e-9, [3]), (2 + 1j + 4e-9j, [1]),
                   (2 - 1j, [2, 1])],
                  [(1.0 - 2e-9, [2, 1]), (2 + 1j - 1e-9, [2, 1]),
                   (0.25, [1])])
    return [gen_fixture(s, seed=k)[1] for k, s in enumerate(structures)]


def _gaussian():
    structures = ([(QC(1, 1), [3, 1]), (QC(-1, 2), [2])],
                  [(QC(1, 1), [4]), (QC(F(1, 2), -1), [1, 1])],
                  [(QC(-1, 2), [2, 1]), (QC(0), [2, 1])])
    return [gen_fixture(s, seed=k, exact=True)[1]
            for k, s in enumerate(structures)]


def _long_chains():
    structures = ([(1.0, [5, 2]), (0.5 + 0.5j, [4])],
                  [(-1.0, [4]), (1.0, [3, 2]), (0.5 + 0.5j, [2])],
                  [(1.0, [5, 2]), (0.5 + 0.5j, [4])])
    return [gen_fixture(s, seed=9 + k)[1] for k, s in enumerate(structures)]


POLY = [0.5, -1.0, 0.3, 1.0, 0.25, -0.125, 0.7]


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("fixture", [_sharing_a_real_part,
                                     _near_equal_across_slots, _gaussian])
def test_lift_per_term(fixture, slots):
    decs = fixture()[:slots]
    coeffs = POLY if not decs[0].exact else [F(c) for c in POLY]
    assert assert_per_term(
        lift_divided_difference(polynomial(coeffs), slots - 1), decs) > 1


def test_near_equal_pairs_span_other_nodes():
    # the fixtures above reach the table's per-term fallback
    for fixture in (_sharing_a_real_part, _near_equal_across_slots):
        decs = fixture()
        tab = lift_divided_difference(polynomial(POLY), 2).tabulated()
        _, table = tab.coefficient_table(
            [[(c.eigenvalue, c.order) for c in slot_options(d)]
             for d in decs])
        assert table.spans


@pytest.mark.parametrize("symbol", ["product", "separable", "multi"])
@pytest.mark.parametrize("exact", [False, True])
def test_other_symbols_per_term(symbol, exact):
    decs = _gaussian() if exact else _near_equal_across_slots()
    coeffs = [F(c) for c in POLY] if exact else POLY
    lift = lift_divided_difference(polynomial(coeffs), 1)
    beta = {
        "product": lambda: product_symbol(lift, 1),
        "separable": lambda: separable_product(
            polynomial(coeffs[:4]), [lift], [[0], [1, 2]]),
        "multi": lambda: multivariate_polynomial(
            3, [(2, (2, 1, 0)), (-1, (0, 3, 1)), (1, (1, 1, 2)),
                (3, (0, 0, 0))]),
    }[symbol]()
    assert assert_per_term(beta, decs) > 1
    for slots in (1, 2):
        multi = multivariate_polynomial(
            slots, [(1, (2,) * slots), (-2, (1,) + (3,) * (slots - 1))])
        assert assert_per_term(multi, decs[:slots]) > 1


def test_one_table_across_walks():
    # a tabulated symbol keeps its table from walk to walk: new nodes and
    # a change of arithmetic renumber it
    lift = lift_divided_difference(polynomial(POLY), 2)
    tab = lift.tabulated()
    gaussian = _gaussian()
    for decs in (_near_equal_across_slots(), _sharing_a_real_part(),
                 gaussian, gaussian[::-1], _near_equal_across_slots(),
                 gaussian):
        assert_per_term(lift, decs, tab)


def test_float_orders_above_2_within_an_ulp():
    decs = _long_chains()
    for k in range(3):
        assert assert_per_term(lift_divided_difference(polynomial(POLY), k),
                               decs[:k + 1]) > 1
    assert assert_per_term(lift_divided_difference(exp_function(), 2),
                           decs) > 1


def test_table_fill_does_not_recurse():
    # node 0 three thousand times and node 1 once: the fill runs a chain
    # of 3000 differences, deeper than the recursion limit
    lift = lift_divided_difference(polynomial([1, 1]), 1).tabulated()
    assert lift.partial((2999, 0), (QC(0), QC(1))) == 0
    rng = random.Random(3)
    nodes = [QC(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
    assert lift.partial((2, 1), nodes) == lift_divided_difference(
        polynomial([1, 1]), 1).partial((2, 1), nodes)
