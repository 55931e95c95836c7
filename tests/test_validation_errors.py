"""Every validation error of the library's public calls: the exception
type and a fragment of its message, one case per check."""

import json

import pytest
from click.testing import CliRunner

from gmoical import (AnalysisError, DecompositionError, DerivativeError,
                     DimensionMismatchError, EngineError, FunctionError,
                     GmoiProblem, Matrix, MultiFunction, NumericsError, QC,
                     binary_selector, continuity_experiment, contour_oracle,
                     decompose, divided_difference, eval_multivariate,
                     eval_univariate, exp_function, from_structure,
                     function_from_json, lift_divided_difference,
                     multivariate_polynomial, perturbation_check_general,
                     polynomial, product_symbol, separable_product,
                     slot_options)
from gmoical.cli import main
from gmoical.engine import eval_modes
from gmoical.numerics import parse_entry
from gmoical.spectral_map import eval_slot_sum

from conftest import ones_beta


def _dec(dim=2):
    return decompose(Matrix.identity(dim))


def _problem(r=2):
    return GmoiProblem(ones_beta(r), [_dec()] * r,
                       [Matrix.identity(2)] * (r - 1))


CASES = {
    # GmoiProblem
    "problem-arity": (lambda: GmoiProblem(ones_beta(3), [_dec()] * 2,
                                          [Matrix.identity(2)]),
                      EngineError, "symbol arity 3"),
    "problem-arguments": (lambda: GmoiProblem(ones_beta(2), [_dec()] * 2,
                                              []),
                          EngineError, "one argument between"),
    "problem-dimensions": (lambda: GmoiProblem(ones_beta(2), [_dec()] * 2,
                                               [Matrix.identity(3)]),
                           EngineError, "mixed dimensions [2, 3]"),
    # engine
    "selector-range": (lambda: binary_selector(4, 2), EngineError,
                       "selector index 4 out of range"),
    "mode-tuple": (lambda: eval_modes(_problem(), [("P", "Q")]),
                   EngineError, 'one mode, "P", "N" or "full"'),
    # spectral_map
    "slot-mode": (lambda: slot_options(_dec(), "Q"), ValueError,
                  "unknown slot mode 'Q'"),
    "interleave-count": (lambda: eval_slot_sum(ones_beta(2), [_dec()] * 2,
                                               interleave=[]),
                         ValueError, "one interleaved argument"),
    "univariate-arity": (lambda: eval_univariate(ones_beta(2), _dec()),
                         ValueError, "needs a univariate function"),
    "multivariate-arity": (lambda: eval_multivariate(ones_beta(2),
                                                     [_dec()]),
                           ValueError, "arity does not match"),
    # MultiFunction
    "eval-count": (lambda: polynomial([1]).eval(1, 2), FunctionError,
                   "expects 1 arguments, got 2"),
    "partial-count": (lambda: polynomial([1]).partial((1, 0), (1,)),
                      FunctionError, "partial needs 1 orders"),
    "partial-negative": (lambda: polynomial([1]).partial((-1,), (1,)),
                         FunctionError, "must be nonnegative"),
    "partial-oracle": (lambda: MultiFunction(1, lambda a: a[0]).partial(
        (1,), (1j,)), FunctionError, "custom has no derivative oracle"),
    # other functions
    "exp-exact": (lambda: exp_function().eval(QC(1)), FunctionError,
                  "not available in exact mode"),
    "exponent-length": (lambda: multivariate_polynomial(2, [(1, (1,))]),
                        FunctionError, "exponent tuple has wrong length"),
    "product-slots": (lambda: product_symbol(ones_beta(3), 1),
                      FunctionError, "exactly one linear slot"),
    "separable-layout": (lambda: separable_product(
        ones_beta(2), [polynomial([1])], [[0], [1]]),
        FunctionError, "layout group size"),
    "dd-arity": (lambda: divided_difference(ones_beta(2), [1j]),
                 FunctionError, "needs a univariate function"),
    "dd-nodes": (lambda: divided_difference(polynomial([1]), []),
                 FunctionError, "at least one node"),
    "lift-arity": (lambda: lift_divided_difference(ones_beta(2), 1),
                   FunctionError, "lift needs a univariate function"),
    "json-object": (lambda: function_from_json([1]), FunctionError,
                    "must be an object with 'kind'"),
    # numerics
    "fraction-type": (lambda: QC(1j), TypeError,
                      "cannot interpret 1j as an exact rational"),
    "entry-pair": (lambda: parse_entry([1], False), NumericsError,
                   "must be a [re, im] pair"),
    "non-square": (lambda: Matrix([[1, 2]]), DimensionMismatchError,
                   "must be square"),
    "mixed-modes": (lambda: Matrix.identity(2, True) + Matrix.identity(2),
                    NumericsError, "cannot mix exact and float"),
    "json-entries": (lambda: Matrix.from_json({"dim": 1}), NumericsError,
                     "must have 'dim' and 'entries'"),
    "json-dim": (lambda: Matrix.from_json(
        {"dim": 3, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        DimensionMismatchError, "declared dim 3 does not match"),
    # jordan
    "singular-transform": (lambda: from_structure([(1, [1, 1])],
                                                  Matrix.zeros(2)),
                           DecompositionError, "transform is singular"),
    "decompose-mode": (lambda: decompose(Matrix.identity(2), mode="x"),
                       DecompositionError, "unknown mode 'x'"),
    # analysis and derivative
    "lift-orders": (lambda: perturbation_check_general(
        ones_beta(3), ones_beta(3), [_dec()] * 2, 2, _dec(), _dec(),
        [Matrix.identity(2)] * 2),
        AnalysisError, "lift orders do not match"),
    "direction-count": (lambda: continuity_experiment(
        _problem(), [Matrix.identity(2)], [0.1]),
        AnalysisError, "one direction matrix per parameter"),
    "contour-arity": (lambda: contour_oracle(
        ones_beta(2), Matrix.identity(2), Matrix.identity(2), 1),
        DerivativeError, "needs a univariate symbol"),
}


@pytest.mark.parametrize("case", CASES)
def test_validation_error(case):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_mixed_dimensions_exit_2(tmp_path):
    """An error the library raises reaches the command line as exit 2 and
    one error line, through the command's guard."""
    files = {}
    for name, obj in {
            "beta": {"kind": "polynomial-multi", "arity": 2,
                     "terms": [{"coeff": 1, "exponents": [0, 0]}]},
            "x2": {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]},
            "x1": {"dim": 1, "entries": [[[1, 0]]]}}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    res = CliRunner().invoke(main, [
        "gmoi", "--beta", str(files["beta"]),
        "--params", f"{files['x2']},{files['x2']}",
        "--args", str(files["x1"])])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: mixed dimensions [1, 2]\n"
