"""Every symbol kind of ``function_from_json`` against the contour-integral
reference of ``contour_reference``, which shares no code with gmoical:
matrix functions, lifted and multivariate operator integrals, product
symbols and symbol partials, in float mode at zeta <= 2, dim <= 4 and
chains <= 3."""

import itertools
import math
import random

import numpy as np
import pytest

from gmoical import (GmoiProblem, eval_gmoi, eval_univariate,
                     function_from_json, gen_fixture, moi_as_spectral_map,
                     random_matrix, random_structure)
from contour_reference import (cauchy_partial, integral, lift_partial,
                               multivariate)

# each univariate kind with an eigenvalue pool whose spectra a circle
# separates from the poles
UNIVARIATE = {
    "exp": ({"kind": "exp"}, [-1, 0, 1, 2]),
    "constant": ({"kind": "constant", "value": [2, "-1/3"]}, [-1, 0, 1, 2]),
    "polynomial": ({"kind": "polynomial",
                    "coeffs": ["1/2", -1, "1/3", 1, "1/4"]}, [-1, 0, 1, 2]),
    "rational": ({"kind": "rational", "num": [1, "1/2"], "den": [4, -1]},
                 [-1, 0, 1]),
    "power": ({"kind": "power", "degree": 3}, [-1, 0, 1, 2]),
    "negative power": ({"kind": "power", "degree": -2}, [2, 3, 4]),
}


def _fixture(rng, pool, dim=None):
    """A float parameter with chains <= 3 and its decomposition."""
    dim = dim or rng.randint(2, 4)
    structure = random_structure(rng, dim, max_block=3, eig_pool=pool)
    return gen_fixture(structure, seed=rng.randrange(2 ** 30))


def _close(got, want):
    got = got.to_numpy()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _problem(rng, pool, zeta):
    dim = rng.randint(2, 4)
    mats, decs = zip(*(_fixture(rng, pool, dim) for _ in range(zeta + 1)))
    args = [random_matrix(rng, dim) for _ in range(zeta)]
    return decs, args, [m.to_numpy() for m in mats], [a.to_numpy()
                                                      for a in args]


def _multi_symbol(rng, arity):
    terms = [{"coeff": rng.randint(-3, 3) or 1,
              "exponents": [rng.randint(0, 2) for _ in range(arity)]}
             for _ in range(3)]
    return {"kind": "polynomial-multi", "arity": arity, "terms": terms}


@pytest.mark.parametrize("kind", sorted(UNIVARIATE))
def test_eval_univariate(kind):
    obj, pool = UNIVARIATE[kind]
    rng = random.Random(f"univariate {kind}")
    f = function_from_json(obj)
    for _ in range(3):
        x, dec = _fixture(rng, pool)
        _close(eval_univariate(f, dec), integral(obj, [x.to_numpy()], []))


@pytest.mark.parametrize("kind", sorted(UNIVARIATE))
def test_dd_lift(kind):
    base, pool = UNIVARIATE[kind]
    rng = random.Random(f"lift {kind}")
    for zeta in (1, 2):
        obj = {"kind": "dd-lift", "base": base, "order": zeta}
        beta = function_from_json(obj)
        for _ in range(2):
            decs, args, xs, ys = _problem(rng, pool, zeta)
            got = eval_gmoi(GmoiProblem(beta, decs, args))
            want = integral(obj, xs, ys)
            if kind == "constant":
                # every divided difference of a constant vanishes
                assert got.is_zero()
                assert np.linalg.norm(want) <= 1e-12 * math.prod(
                    np.linalg.norm(y) for y in ys)
            else:
                _close(got, want)


@pytest.mark.parametrize("zeta", [1, 2])
def test_polynomial_multi(zeta):
    rng = random.Random(f"multi {zeta}")
    for _ in range(3 if zeta == 1 else 2):
        obj = _multi_symbol(rng, zeta + 1)
        decs, args, xs, ys = _problem(rng, [-1, 0, 1], zeta)
        _close(eval_gmoi(GmoiProblem(function_from_json(obj), decs, args)),
               integral(obj, xs, ys))


@pytest.mark.parametrize("zeta", [1, 2])
def test_moi_as_spectral_map(zeta):
    rng = random.Random(f"product {zeta}")
    lift = {"kind": "dd-lift", "base": {"kind": "exp"}, "order": zeta}
    # three circles of a multivariate symbol at zeta = 2 cost seconds
    symbols = [lift] if zeta == 2 else [lift, _multi_symbol(rng, 2)]
    for beta_obj in symbols:
        obj = {"kind": "product-moi", "beta": beta_obj, "zeta": zeta}
        beta = function_from_json(obj).meta["beta"]
        decs, _, xs, _ = _problem(rng, [-1, 0, 1], zeta)
        mats, arg_decs = zip(*(_fixture(rng, [-1, 0, 1], len(xs[0]))
                               for _ in range(zeta)))
        _close(moi_as_spectral_map(beta, decs, arg_decs),
               integral(obj, xs, [m.to_numpy() for m in mats]))


def test_multivariate_partials_by_cauchy():
    obj = {"kind": "polynomial-multi", "arity": 2,
           "terms": [{"coeff": 1, "exponents": [2, 2]},
                     {"coeff": -2, "exponents": [1, 0]}]}
    f = function_from_json(obj)
    assert f.partial((1, 1), (0.7, -0.4)) == pytest.approx(
        cauchy_partial(multivariate(obj), (1, 1), (0.7, -0.4)),
        rel=1e-12)
    rng = random.Random(21)
    obj = _multi_symbol(rng, 3)
    f = function_from_json(obj)
    point = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(3)]
    for orders in itertools.product(range(3), repeat=3):
        want = cauchy_partial(multivariate(obj), orders, point)
        assert abs(f.partial(orders, point) - want) <= 1e-12 * max(
            1.0, abs(want))


@pytest.mark.parametrize("kind", sorted(UNIVARIATE))
def test_lift_partials_by_cauchy(kind):
    base, pool = UNIVARIATE[kind]
    rng = random.Random(f"partials {kind}")
    f = function_from_json({"kind": "dd-lift", "base": base, "order": 2})
    # nodes as the spectral sums meet them: eigenvalues, distinct or equal
    for _ in range(3):
        point = [complex(rng.choice(pool), 0.25) for _ in range(3)]
        for orders in itertools.product(range(3), repeat=3):
            want = lift_partial(base, orders, point)
            assert abs(f.partial(orders, point) - want) <= 1e-12 * max(
                1.0, abs(want))
