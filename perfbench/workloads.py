"""The benchmark's workloads: seeded inputs, the ops run on them, and an
independent check for every op.

An op is one library call or one CLI command, timed on its own. Its check
compares the result with an oracle from :mod:`oracle`, which shares no
code with gmoical, and returns ``(passed, relative error)``. Inputs come
from gmoical's fixture generators, driven by two random streams: ``rng``
follows the seed and draws transforms, arguments and symbols; ``shapes``
starts afresh for every input set and draws the Jordan structures (chain
lengths and eigenvalues). An op's cost depends mostly on its structure, so
each kind of op keeps one structure in every set and for every seed, which
keeps the seed from moving the timings, while every set and every seed
bring new matrices (for ``exact_cli``, new arguments and symbols).

Every workload builds a fixed number of independent input sets from one
seed; a cycle runs every op of one set, cheapest op first, and a round
runs one cycle per set.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from gmoical import (Matrix, analysis, cli, derivative, engine, fixtures,
                     functions, jordan)

import oracle

EIG_POOL = (-2, -1, 0, 1, 2, 3)       # the fixture generators' default pool

# Largest relative Frobenius error a float result may show against the
# oracle. Observed: integrals and norms <= 1e-13; order-3 derivatives, whose
# correction terms are Richardson-extrapolated finite differences, <= 1e-6.
FLOAT_TOL = 1e-8
DERIVATIVE_TOL = 1e-4


Op = namedtuple("Op", "kind call check inputs")
Op.__doc__ = """``call()`` runs the program; ``check(result)`` returns
``(passed, relative error)``; ``inputs()`` returns the op's inputs as
JSON-ready data."""


def _json_inputs(coeffs, *matrices):
    return lambda: [[str(c) for c in coeffs]] + [
        [m.to_json() for m in group] for group in matrices]


def _np(m):
    return oracle.np_matrix(m.to_json())


def _quartic(rng):
    """Coefficients of a random quartic, lowest degree first."""
    return ([round(rng.uniform(-1, 1), 3) for _ in range(4)]
            + [rng.choice((-1.0, -0.5, 0.5, 1.0))])


def _float_problem(rng, shapes, coeffs, dim, zeta, max_block,
                   distinct=False):
    """A float integral with prescribed-structure parameters and dense
    arguments, plus the parameter matrices themselves."""
    decs, mats = [], []
    for _ in range(zeta + 1):
        structure = fixtures.random_structure(
            shapes, dim, max_block=max_block, distinct=distinct)
        mat, dec = fixtures.gen_fixture(structure, seed=rng.randrange(2 ** 30))
        decs.append(dec)
        mats.append(mat)
    args = [fixtures.random_matrix(rng, dim) for _ in range(zeta)]
    beta = functions.lift_divided_difference(functions.polynomial(coeffs),
                                             zeta)
    return engine.GmoiProblem(beta, decs, args), mats


def _float_integral(coeffs, mats, args):
    """The oracle integral, computed on first use."""
    return functools.cache(lambda: oracle.np_integral(
        coeffs, [_np(m) for m in mats], [_np(a) for a in args]))


# ---------------------------------------------------------------------------
# gmoi_float: the north-star grid, one integral per op

GMOI_GRID = ((6, 1), (6, 2), (12, 1), (6, 3), (16, 1), (12, 2), (16, 2))


def _gmoi_op(rng, shapes, coeffs, dim, zeta):
    problem, mats = _float_problem(rng, shapes, coeffs, dim, zeta,
                                   max_block=3)
    want = _float_integral(coeffs, mats, problem.args)

    def check(result):
        err = oracle.rel_err(_np(result), want())
        return err <= FLOAT_TOL, err

    return Op(f"gmoi d{dim} z{zeta}", lambda: engine.eval_gmoi(problem),
              check, _json_inputs(coeffs, mats, problem.args))


def build_gmoi_float(rng, shapes, workdir):
    coeffs = _quartic(rng)
    return [_gmoi_op(rng, shapes, coeffs, dim, zeta)
            for dim, zeta in GMOI_GRID]


# ---------------------------------------------------------------------------
# exact_cli: three CLI commands in exact mode, in process

EXACT_DIMS = (4, 5, 6)
EXACT_ZETA = 2


def _exact_quartic(rng):
    # integer coefficients: rational ones would make the cost of exact
    # arithmetic depend on the seed's denominators
    return ([Fraction(rng.randint(-3, 3)) for _ in range(4)]
            + [Fraction(rng.choice((-1, 1)))])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _invoke(runner, argv):
    res = runner.invoke(cli.main, argv)
    if res.exit_code != 0:
        raise RuntimeError(f"exit code {res.exit_code}: "
                           f"{res.output.strip()[-300:]}")
    return res.stdout


def build_exact_cli(rng, shapes, workdir):
    os.makedirs(workdir, exist_ok=True)
    runner = CliRunner()
    coeffs = _exact_quartic(rng)
    base = {"kind": "polynomial", "coeffs": [str(c) for c in coeffs]}
    f_path = _write_json(os.path.join(workdir, "f.json"), base)
    beta_path = _write_json(os.path.join(workdir, "beta.json"),
                            {"kind": "dd-lift", "order": EXACT_ZETA,
                             "base": base})
    ops = []
    for dim in EXACT_DIMS:
        # the parameters' transforms come from ``shapes`` too: the cost of
        # exact arithmetic follows the size of the denominators of V^-1
        mats = [fixtures.gen_fixture(
            fixtures.random_structure(shapes, dim, max_block=2, exact=True),
            seed=shapes.randrange(2 ** 30), exact=True)[0]
            for _ in range(EXACT_ZETA + 1)]
        args = [fixtures.random_matrix(rng, dim, exact=True)
                for _ in range(EXACT_ZETA)]
        mat_js = [m.to_json() for m in mats]
        arg_js = [a.to_json() for a in args]
        p_paths = [_write_json(os.path.join(workdir, f"d{dim}-x{j}.json"), m)
                   for j, m in enumerate(mat_js)]
        y_paths = [_write_json(os.path.join(workdir, f"d{dim}-y{j}.json"), a)
                   for j, a in enumerate(arg_js)]
        problem = ["--beta", beta_path, "--params", ",".join(p_paths),
                   "--args", ",".join(y_paths), "--exact", "--json"]
        want = functools.cache(lambda mat_js=mat_js, arg_js=arg_js:
                               oracle.exact_integral(
                                   coeffs,
                                   [oracle.exact_matrix(m) for m in mat_js],
                                   [oracle.exact_matrix(a) for a in arg_js]))

        def check_bounds(out, want=want):
            norm = math.sqrt(float(oracle.exact_frobenius_sq(want())))
            err = abs(out["actualNorm"] - norm) / norm
            return err == 0 and out["sortedLower"] <= out["actualNorm"], err

        def check_gmoi(out, want=want):
            got = oracle.exact_matrix(out["result"])
            total = None
            for pat in out["patterns"]:
                term = oracle.exact_matrix(pat["term"])
                total = term if total is None else oracle.exact_add(total,
                                                                    term)
            err = oracle.exact_rel_err(got, want())
            sums = len(out["patterns"]) == 2 ** (EXACT_ZETA + 1) \
                and total == got
            return err == 0 and sums, err

        def check_perturbation(out):
            return out["residual"] == 0, out["residual"]

        perturb = ["--function", f_path, "--c", p_paths[0], "--d", p_paths[1],
                   "--x1", p_paths[2], "--args", y_paths[0], "--exact",
                   "--json"]
        for kind, argv, check in (
                ("bounds", ["bounds"] + problem, check_bounds),
                ("gmoi", ["gmoi"] + problem + ["--patterns"], check_gmoi),
                ("verify-perturbation", ["verify-perturbation"] + perturb,
                 check_perturbation)):
            ops.append(Op(f"{kind} d{dim}",
                          functools.partial(_invoke, runner, argv),
                          lambda text, check=check: check(json.loads(text)),
                          lambda argv=argv: [argv, base, mat_js, arg_js]))
    return ops


# ---------------------------------------------------------------------------
# analysis_small: reports, continuity and derivatives at small dimension

NORM_CELLS = ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3))
DERIVATIVE_CELLS = ((3, 2), (3, 3))
CONTINUITY_DIM = 3
CONTINUITY_LEVELS = 12


def _continuity_op(rng, shapes, coeffs):
    # distinct eigenvalues at least one apart; directions of norm <= 0.7
    # keep them apart for every step t <= 1/2
    problem, mats = _float_problem(rng, shapes, coeffs, CONTINUITY_DIM, 1,
                                   max_block=1, distinct=True)
    mats_np = [_np(m) for m in mats]
    dirs = [fixtures.random_matrix(rng, CONTINUITY_DIM).scale(0.1)
            for _ in range(2)]
    steps = [2.0 ** -level for level in range(1, CONTINUITY_LEVELS + 1)]
    args = [_np(a) for a in problem.args]
    dirs_np = [_np(e) for e in dirs]

    @functools.cache
    def want():
        base = oracle.np_integral(coeffs, mats_np, args)
        return np.array([np.linalg.norm(oracle.np_integral(
            coeffs, [x + t * e for x, e in zip(mats_np, dirs_np)], args)
            - base)
            for t in steps])

    def check(rep):
        err = oracle.rel_err(np.array(rep.residuals), want())
        return err <= FLOAT_TOL, err

    return Op("continuity d3",
              lambda: analysis.continuity_experiment(problem, dirs, steps),
              check, _json_inputs(coeffs, mats, dirs, problem.args))


def _jordan_family(rng, shapes, dim):
    """(X's decomposition, X, Y) for X with chains <= 2, one of them of
    length 2, and Y = V D V^-1 with D constant per eigenvalue, so that
    X + tY = V (J + tD) V^-1 keeps X's Jordan structure for small t."""
    sizes = [2]
    while sum(sizes) < dim:
        sizes.append(shapes.randint(1, min(2, dim - sum(sizes))))
    grouped = {}
    for m in sizes:
        grouped.setdefault(shapes.choice(EIG_POOL), []).append(m)
    structure = [(complex(lam), lengths)
                 for lam, lengths in sorted(grouped.items())]
    mat, dec = fixtures.gen_fixture(structure, seed=rng.randrange(2 ** 30))
    shifts = {}
    diag = []
    for b in dec.blocks:       # in the column order of dec.transform
        if b.eigenvalue not in shifts:
            shifts[b.eigenvalue] = rng.choice((-1.0, -0.5, 0.5, 1.0, 1.5))
        diag.extend([shifts[b.eigenvalue]] * b.order)
    v = _np(dec.transform)
    y = v @ np.diag(diag) @ np.linalg.inv(v)
    return dec, mat, Matrix.from_numpy(y)


def _derivative_op(rng, shapes, coeffs, dim, order):
    dec, mat, y = _jordan_family(rng, shapes, dim)
    f = functions.polynomial(coeffs)
    want = functools.cache(lambda: oracle.np_derivative(
        coeffs, _np(mat), _np(y), order))

    def check(result):
        err = oracle.rel_err(_np(result), want())
        return err <= DERIVATIVE_TOL, err

    return Op(f"nth_derivative d{dim} n{order}",
              lambda: derivative.nth_derivative(f, dec, y, order), check,
              _json_inputs(coeffs, [mat, y]))


def _report_ops(rng, shapes, coeffs, dim, zeta):
    problem, mats = _float_problem(rng, shapes, coeffs, dim, zeta,
                                   max_block=3)
    alt = [a + fixtures.random_matrix(rng, dim).scale(0.1)
           for a in problem.args]
    want = _float_integral(coeffs, mats, problem.args)
    want_alt = _float_integral(coeffs, mats, alt)

    def check_norm(rep):
        norm = float(np.linalg.norm(want()))
        err = abs(rep.actual_norm - norm) / norm
        return (err <= FLOAT_TOL
                and rep.sorted_lower <= rep.actual_norm * (1 + FLOAT_TOL)), err

    def check_lipschitz(out):
        actual, _bound = out
        diff = float(np.linalg.norm(want() - want_alt()))
        err = abs(actual - diff) / diff
        return err <= FLOAT_TOL, err

    inputs = _json_inputs(coeffs, mats, problem.args, alt)
    return [Op(f"norm_report d{dim} z{zeta}",
               lambda: analysis.norm_report(problem), check_norm, inputs),
            Op(f"lipschitz_check d{dim} z{zeta}",
               lambda: analysis.lipschitz_check(problem, alt),
               check_lipschitz, inputs)]


def build_analysis_small(rng, shapes, workdir):
    coeffs = _quartic(rng)
    ops = [_continuity_op(rng, shapes, coeffs)]
    ops += [_derivative_op(rng, shapes, coeffs, dim, order)
            for dim, order in DERIVATIVE_CELLS]
    for dim, zeta in NORM_CELLS:
        ops += _report_ops(rng, shapes, coeffs, dim, zeta)
    return ops


# Probes of known seed-state failures of the float auto-decomposition:
# on its own, and inside order-2 derivatives of structure-stable Jordan
# families at dim 4, which decompose X + tY at every stencil node. They run
# in the traced pass only and count toward the probe.* metrics, not toward
# ops; every input drawn is attempted.
PROBE_DECOMPOSE_DIMS = (4, 5, 6, 7, 8)
PROBE_DECOMPOSE_PER_DIM = 20
PROBE_DERIVATIVES = 20


def _decompose_probe(rng, dim):
    structure = fixtures.random_structure(rng, dim, max_block=3)
    mat, _ = fixtures.gen_fixture(structure, seed=rng.randrange(2 ** 30))
    expected = tuple(tuple(sorted(lengths, reverse=True))
                     for _, lengths in structure)
    return lambda: jordan.decompose(mat, mode="auto").signature() == expected


def _derivative_probe(rng, coeffs):
    op = _derivative_op(rng, rng, coeffs, 4, 2)
    return lambda: op.check(op.call())[0]


def analysis_probes(rng):
    """{probe kind: [calls returning True when the program was right]}"""
    coeffs = _quartic(rng)
    return {
        "decompose_auto": [_decompose_probe(rng, dim)
                           for dim in PROBE_DECOMPOSE_DIMS
                           for _ in range(PROBE_DECOMPOSE_PER_DIM)],
        "nth_derivative": [_derivative_probe(rng, coeffs)
                           for _ in range(PROBE_DERIVATIVES)],
    }


class Workload:
    def __init__(self, name, build, sets, imports=(), probes=None):
        self.name = name
        self.build = build
        self.sets = sets
        self.imports = imports      # lazy imports the program would make
        self.probes = probes

    def cycles(self, seed, workdir):
        """The input sets, each a list of ops, drawn from one seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [self.build(rng, random.Random(f"{self.name}:shapes"),
                           os.path.join(workdir, f"set{k}"))
                for k in range(self.sets)]

    def probe_calls(self, seed):
        if self.probes is None:
            return {}
        return self.probes(random.Random(f"{self.name}:{seed}:probes"))


# The number of sets makes one round take most of a 26 s run on a 2-core
# x86-64 container (exact_cli: about 31 s, for a tail percentile well above
# the median). It also puts the median and the tail percentile inside a
# group of ops of one kind, not on the edge between two kinds of different
# cost.
WORKLOADS = {w.name: w for w in (
    Workload("gmoi_float", build_gmoi_float, sets=7),
    Workload("exact_cli", build_exact_cli, sets=4, imports=("sympy",)),
    Workload("analysis_small", build_analysis_small, sets=8,
             probes=analysis_probes),
)}
