"""Command-line front end: file I/O, fixture generation, and report
emission for every library layer.

Exit codes: 0 success, 2 validation/input error, 3 term budget exceeded.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction

import click

from . import analysis, derivative, engine, fixtures, functions, jordan
from .numerics import Matrix, QC, NumericsError, frobenius_norm, scalar_json
from .spectral_map import (BudgetExceededError, eval_multivariate,
                           eval_univariate)


def _dec_json(dec):
    return {
        "dim": dec.dim,
        "exact": dec.exact,
        "eigenvalues": [scalar_json(e) for e in dec.eigenvalues],
        "blocks": [{
            "eigenvalue": scalar_json(b.eigenvalue),
            "index": b.block_index,
            "order": b.order,
            "projector": b.projector.to_json(),
            "nilpotent": b.nilpotent.to_json(),
        } for b in dec.blocks],
    }


def _emit(payload, as_json):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))


class _ValidationError(click.ClickException):
    """Malformed input: reported with path and field, exit code 2."""
    exit_code = 2


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _ValidationError(f"cannot read {path}: {e}")


def _load_matrix(path, exact):
    try:
        return Matrix.from_json(_load_json(path), exact=exact)
    except NumericsError as e:
        raise _ValidationError(f"{path}: {e}")


def _load_matrices(paths, exact):
    return [_load_matrix(p.strip(), exact) for p in paths.split(",")]


def _load_function(path):
    try:
        return functions.function_from_json(_load_json(path))
    except functions.FunctionError as e:
        raise _ValidationError(f"{path}: {e}")


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*a, **kw):
        try:
            return fn(*a, **kw)
        except BudgetExceededError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(3)
        except click.ClickException:
            raise
        except (ValueError, TypeError, KeyError, OSError,
                ZeroDivisionError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)
    return wrapper


def _decompose_all(paths, exact, tol):
    return [jordan.decompose(m, tol=tol)
            for m in _load_matrices(paths, exact)]


def _load_problem(beta_path, params, args_paths, exact, tol):
    """The integral of the symbol at ``beta_path`` with the decomposed
    parameter matrices ``params`` and the argument matrices
    ``args_paths``, both comma-separated file lists."""
    beta = _load_function(beta_path)
    decs = _decompose_all(params, exact, tol)
    return engine.GmoiProblem(beta, decs, _load_matrices(args_paths, exact))


@click.group()
def main():
    """Evaluate matrix functions, operator integrals, and their bounds,
    perturbation identities, and derivatives from Jordan spectral data."""


_common = {
    "tol": click.option("--tol", default=1e-9, show_default=True,
                        help="decomposition / comparison tolerance"),
    "exact": click.option("--exact", is_flag=True,
                          help="exact rational-complex arithmetic"),
    "json": click.option("--json", "as_json", is_flag=True,
                         help="compact machine-readable output"),
    "budget": click.option("--budget", default=None,
                           type=click.IntRange(min=0),
                           help="term budget override (env GMOI_BUDGET)"),
}


def common_options(*names):
    """Add the named options of ``_common`` (all of them when none are
    named), in its order."""
    def apply(fn):
        for name in reversed(_common):
            if name in names or not names:
                fn = _common[name](fn)
        return fn
    return apply


@main.command()
@click.argument("matrix", type=click.Path(exists=True))
@common_options("tol", "exact", "json")
@_guarded
def decompose(matrix, tol, exact, as_json):
    """Jordan decomposition of MATRIX (JSON file)."""
    m = _load_matrix(matrix, exact)
    dec = jordan.decompose(m, tol=tol)
    payload = _dec_json(dec)
    payload["validation"] = dec.validate(m)
    _emit(payload, as_json)


@main.command()
@click.option("--function", "function_path", required=True,
              type=click.Path(exists=True))
@click.option("--matrices", required=True,
              help="comma-separated matrix JSON files")
@common_options()
@_guarded
def funcmat(function_path, matrices, tol, exact, as_json, budget):
    """Multivariate matrix function f(X1, ..., Xr)."""
    f = _load_function(function_path)
    decs = _decompose_all(matrices, exact, tol)
    if len(decs) == 1:
        result = eval_univariate(f, decs[0], budget=budget)
    else:
        result = eval_multivariate(f, decs, budget=budget)
    _emit({"result": result.to_json()}, as_json)


@main.command()
@click.option("--beta", "beta_path", required=True,
              type=click.Path(exists=True))
@click.option("--params", required=True,
              help="comma-separated parameter matrix files")
@click.option("--args", "args_paths", required=True,
              help="comma-separated argument matrix files")
@click.option("--patterns", is_flag=True,
              help="also emit the per-pattern nilpotent terms")
@click.option("--dump-terms", is_flag=True)
@common_options()
@_guarded
def gmoi(beta_path, params, args_paths, patterns, dump_terms, tol, exact,
         as_json, budget):
    """Evaluate the operator integral T_beta^{X...}(Y...)."""
    problem = _load_problem(beta_path, params, args_paths, exact, tol)
    r = len(problem.params)
    full = ("full",) * r
    pats = [engine.NilpotentPattern(i, r) for i in range(2 ** r)
            if patterns or dump_terms]
    sums = engine.eval_modes(problem, [full] + [pat.modes for pat in pats],
                             budget=budget)
    payload = {"result": sums[full].to_json()}
    if pats:
        payload["patterns"] = [
            {"index": pat.index, "modes": list(pat.modes),
             "term": sums[pat.modes].to_json()} for pat in pats]
    _emit(payload, as_json)


@main.command()
@click.option("--beta", "beta_path", required=True,
              type=click.Path(exists=True))
@click.option("--params", required=True)
@click.option("--args", "args_paths", required=True)
@click.option("--dump-terms", is_flag=True)
@common_options()
@_guarded
def bounds(beta_path, params, args_paths, dump_terms, tol, exact, as_json,
           budget):
    """Norm-bound report (upper, sorted lower, dominance lower)."""
    problem = _load_problem(beta_path, params, args_paths, exact, tol)
    rep = analysis.norm_report(problem, budget=budget)
    payload = {
        "upperBound": rep.upper_bound,
        "sortedLower": rep.sorted_lower,
        "minBetaLower": rep.min_beta_lower,
        "conditionHolds": rep.condition_holds,
        "actualNorm": rep.actual_norm,
    }
    if dump_terms:
        payload["perPatternNorms"] = rep.per_pattern_norms
        payload["perPatternUpper"] = rep.per_pattern_upper
    _emit(payload, as_json)


@main.command()
@click.option("--beta", "beta_path", required=True,
              type=click.Path(exists=True))
@click.option("--params", required=True)
@click.option("--args", "args_paths", required=True)
@click.option("--args2", "args2_paths", required=True,
              help="perturbed argument matrices")
@common_options()
@_guarded
def lipschitz(beta_path, params, args_paths, args2_paths, tol, exact,
              as_json, budget):
    """Argument-Lipschitz estimate: actual difference vs bound."""
    problem = _load_problem(beta_path, params, args_paths, exact, tol)
    args2 = _load_matrices(args2_paths, exact)
    actual, bound = analysis.lipschitz_check(problem, args2, budget=budget)
    _emit({"actual": actual, "bound": bound, "holds": actual <= bound},
          as_json)


@main.command("verify-perturbation")
@click.option("--function", "function_path", required=True,
              type=click.Path(exists=True),
              help="univariate base function; lifts are built internally")
@click.option("--c", "c_path", required=True, type=click.Path(exists=True))
@click.option("--d", "d_path", required=True, type=click.Path(exists=True))
@click.option("--x1", "x1_path", default=None, type=click.Path(exists=True),
              help="single flanking parameter (first-order case)")
@click.option("--params", default=None,
              help="flanking parameters X1..Xzeta (general case)")
@click.option("--j", "slot_j", default=2, show_default=True,
              help="interior pair slot for the general case")
@click.option("--args", "args_paths", required=True)
@click.option("--dump-terms", is_flag=True)
@common_options()
@_guarded
def verify_perturbation(function_path, c_path, d_path, x1_path, params,
                        slot_j, args_paths, dump_terms, tol, exact, as_json,
                        budget):
    """Check the perturbation identity in C and D; reports the residual."""
    f = _load_function(function_path)
    c_dec = jordan.decompose(_load_matrix(c_path, exact), tol=tol)
    d_dec = jordan.decompose(_load_matrix(d_path, exact), tol=tol)
    args = _load_matrices(args_paths, exact)
    if x1_path is not None:
        x1_dec = jordan.decompose(_load_matrix(x1_path, exact), tol=tol)
        rep = analysis.perturbation_check_gdoi(
            functions.lift_divided_difference(f, 1),
            functions.lift_divided_difference(f, 2),
            c_dec, d_dec, x1_dec, args[0], budget=budget)
    elif params is not None:
        decs = _decompose_all(params, exact, tol)
        zeta = len(decs)
        rep = analysis.perturbation_check_general(
            functions.lift_divided_difference(f, zeta),
            functions.lift_divided_difference(f, zeta + 1),
            decs, slot_j, c_dec, d_dec, args, budget=budget)
    else:
        raise _ValidationError("need either --x1 or --params")
    payload = {"residual": rep.residual}
    if dump_terms:
        payload["lhs"] = rep.lhs.to_json()
        payload["rhsMain"] = rep.rhs_main.to_json()
        payload["corrections"] = {k: v.to_json()
                                  for k, v in rep.corrections.items()}
        payload["trailing"] = {k: v.to_json()
                               for k, v in rep.trailing.items()}
    _emit(payload, as_json)


@main.command()
@click.option("--beta", "beta_path", required=True,
              type=click.Path(exists=True))
@click.option("--params", required=True)
@click.option("--args", "args_paths", required=True)
@click.option("--directions", required=True,
              help="one perturbation direction matrix per parameter")
@click.option("--levels", default=12, show_default=True)
@common_options()
@_guarded
def continuity(beta_path, params, args_paths, directions, levels, tol,
               exact, as_json, budget):
    """Residual decay of the integral along X_j + t E_j, t = 2^-l."""
    problem = _load_problem(beta_path, params, args_paths, exact, tol)
    dirs = _load_matrices(directions, exact)
    steps = [2.0 ** -l for l in range(1, levels + 1)]
    rep = analysis.continuity_experiment(problem, dirs, steps, tol=tol,
                                         budget=budget)
    _emit({"steps": rep.steps, "residuals": rep.residuals,
           "slope": rep.slope}, as_json)


@main.command("derivative")
@click.option("--function", "function_path", required=True,
              type=click.Path(exists=True))
@click.option("--x", "x_path", required=True, type=click.Path(exists=True))
@click.option("--y", "y_path", required=True, type=click.Path(exists=True))
@click.option("--order", default=1, show_default=True)
@click.option("--verify", is_flag=True,
              help="also report the contour-integral oracle residual")
@common_options()
@_guarded
def derivative_cmd(function_path, x_path, y_path, order, verify, tol, exact,
                   as_json, budget):
    """d^n f(X + tY)/dt^n at t=0, as n! times the operator integral of the
    order-n divided difference of f with every parameter X; exact with
    --exact, for Jordan X too."""
    f = _load_function(function_path)
    x = _load_matrix(x_path, exact)
    y = _load_matrix(y_path, exact)
    result = derivative.nth_derivative(f, x, y, order, budget=budget, tol=tol)
    payload = {"order": order, "result": result.to_json()}
    if verify:
        oracle = derivative.contour_oracle(f, x, y, order)
        payload["oracleResidual"] = frobenius_norm(
            result.to_float() - oracle)
    _emit(payload, as_json)


def _parse_blocks(spec, exact):
    grouped = {}
    for part in spec.split(","):
        lam_s, _, size_s = part.partition(":")
        if not size_s:
            raise _ValidationError(
                f"block {part!r}: expected 'eigenvalue:size'")
        lam = Fraction(lam_s)
        grouped.setdefault(lam, []).append(int(size_s))
    return [(lam if exact else complex(lam), sizes)
            for lam, sizes in sorted(grouped.items())]


@main.command("gen-fixture")
@click.option("--blocks", required=True,
              help="comma-separated eigenvalue:size pairs, e.g. '1:2,2:1'")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path(),
              help="directory for matrix.json and decomposition.json")
@common_options("exact", "json")
@_guarded
def gen_fixture(blocks, seed, out, exact, as_json):
    """Generate X = V J V^-1 with the given structure and a random
    well-conditioned transform."""
    structure = _parse_blocks(blocks, exact)
    matrix, dec = fixtures.gen_fixture(structure, seed=seed, exact=exact)
    payload = {"matrix": matrix.to_json(),
               "decomposition": _dec_json(dec)}
    if out:
        os.makedirs(out, exist_ok=True)
        for name, data in (("matrix.json", payload["matrix"]),
                           ("decomposition.json", payload["decomposition"])):
            with open(os.path.join(out, name), "w") as fh:
                json.dump(data, fh, sort_keys=True, indent=2)
                fh.write("\n")
        click.echo(f"wrote {out}/matrix.json and {out}/decomposition.json")
    else:
        _emit(payload, as_json)


@main.command()
@_guarded
def selftest():
    """Quick invariant suite over built-in fixtures."""
    import random

    from .engine import GmoiProblem, eval_gmoi

    checks = []
    rng = random.Random(7)

    # constant symbol reduces to the plain argument product
    x, dec = fixtures.gen_fixture([(Fraction(1), [2]), (Fraction(2), [1])],
                                  seed=1, exact=True)
    y1 = fixtures.random_matrix(rng, 3, exact=True)
    y2 = fixtures.random_matrix(rng, 3, exact=True)
    one = functions.multivariate_polynomial(3, [(1, (0, 0, 0))])
    val = eval_gmoi(GmoiProblem(one, (dec, dec, dec), (y1, y2)))
    checks.append(("constant-symbol product", (val - y1 @ y2).is_zero()))

    # pattern terms sum to the integral
    zsym = functions.multivariate_polynomial(
        3, [(1, (1, 0, 1)), (1, (0, 2, 0))])
    prob = GmoiProblem(zsym, (dec, dec, dec), (y1, y2))
    total = None
    for _pat, term in engine.pattern_terms(prob):
        total = term if total is None else total + term
    checks.append(("pattern-sum identity",
                   (total - eval_gmoi(prob)).is_zero()))

    # confluent divided difference of a monomial
    poly = functions.polynomial([0, 0, 0, 1])
    ddv = functions.divided_difference(poly, [QC(2), QC(2), QC(2), QC(2)])
    checks.append(("confluent divided difference", ddv == QC(1)))

    # first derivative of z^2 along Y, exact on the Jordan X
    square = functions.polynomial([0, 0, 1])
    checks.append(("derivative of a square",
                   derivative.nth_derivative(square, dec, y1, 1)
                   == x @ y1 + y1 @ x))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
    if failed:
        sys.exit(2)


if __name__ == "__main__":
    main()
