"""Norm bounds, Lipschitz estimates, perturbation-identity verification,
and the continuity experiment for generalized multiple operator integrals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .engine import (GmoiProblem, NilpotentPattern, eval_gmoi,
                     eval_modes, pattern_terms)
from .jordan import decompose
from .numerics import Matrix, frobenius_norm, mat_mul, scalar


class AnalysisError(ValueError):
    pass


class StructureInstabilityError(AnalysisError):
    pass


# ---------------------------------------------------------------------------
# norm bounds

@dataclass
class NormBoundReport:
    per_pattern_norms: list
    per_pattern_upper: list
    upper_bound: float
    actual_norm: float
    sorted_lower: float
    min_beta_lower: float | None
    condition_holds: bool
    upsilon: float      # scalar factor of the bound with all argument norms stripped


def reverse_triangle_lower(norms):
    """max(0, largest - sum of the rest)."""
    if not norms:
        return 0.0
    s = sorted(norms, reverse=True)
    return max(0.0, s[0] - sum(s[1:]))


def _pattern_upper(problem, pattern, peak, nil_norms):
    """(bound, scalar) for one nilpotent pattern: bound includes the
    argument-norm factors, scalar omits them (used for the Lipschitz
    coefficient). The implicit trailing identity argument has weight 1.
    ``peak(orders)`` is max |partial of beta| / prod(orders!) over the
    eigenvalue grid; ``nil_norms[j]`` lists (q, |N**q|_F) over the chains
    of parameter j."""
    zeta = problem.zeta
    r = zeta + 1
    bits = pattern.bits
    weights = [frobenius_norm(y) for y in problem.args] + [1.0]
    selected = [j for j in range(r) if bits[j]]
    # enumeration over (block, q) for the selected slots only
    sel_opts = [nil_norms[j] for j in selected]
    scalar_total = 0.0
    for combo in itertools.product(*sel_opts):
        orders = [0] * r
        nil_factor = 1.0
        for j, (q, nnorm) in zip(selected, combo):
            orders[j] = q
            nil_factor *= nnorm
        scalar_total += peak(tuple(orders)) * nil_factor
    w_sel = 1.0
    for j in selected:
        w_sel *= weights[j]
    w_unsel = 1.0
    for j in range(r):
        if j not in selected:
            w_unsel *= weights[j]
    return scalar_total * w_sel * w_unsel, scalar_total


def _pattern_uppers(problem):
    """(``_pattern_upper`` of each nilpotent pattern, in pattern order, and
    min |beta| over the eigenvalue grid). The grid peak of an order tuple
    is the largest |coefficient| over the keys of the grid points in the
    symbol's coefficient table, computed once for all patterns, and so are
    the nilpotent-power norms of each parameter; the grid minimum reads
    the order-0 keys of the same table."""
    r = problem.zeta + 1
    nil_norms = [[(q, frobenius_norm(npow)) for b in d.blocks
                  for q, npow in enumerate(b.powers, 1)]
                 for d in problem.params]
    grids = [[scalar(e) for e in d.eigenvalues] for d in problem.params]
    tops = [max((q for q, _ in n), default=0) for n in nil_norms]
    parts, coeffs = problem.beta.coefficient_table(
        [[(z, q) for q in range(top + 1) for z in grid]
         for grid, top in zip(grids, tops)])
    # grid_parts[j][q]: the keys of slot j's grid at order q
    grid_parts = [[p[q * len(g):(q + 1) * len(g)] for q in range(top + 1)]
                  for p, g, top in zip(parts, grids, tops)]
    peaks = {}

    def grid_abs(orders):
        keys = [0]
        for slot, q in zip(grid_parts, orders):
            keys = [k + p for k in keys for p in slot[q]]
        return map(abs, map(coeffs.__getitem__, keys))

    def peak(orders):
        if orders not in peaks:
            peaks[orders] = max(grid_abs(orders))
        return peaks[orders]

    return ([_pattern_upper(problem, NilpotentPattern(i, r), peak, nil_norms)
             for i in range(2 ** r)], min(grid_abs((0,) * r)))


def norm_report(problem, budget=None):
    """Per-pattern actual norms and upper bounds, the summed upper bound,
    and both lower bounds."""
    problem = problem.tabulated()
    terms = pattern_terms(problem, budget=budget)
    per_norm = [frobenius_norm(t) for _, t in terms]
    uppers, beta_min = _pattern_uppers(problem)
    per_up = [up for up, _ in uppers]
    total = Matrix.zeros(problem.dim, problem.exact)
    for _, t in terms:
        total = total + t
    actual = frobenius_norm(total)
    sorted_lower = reverse_triangle_lower(per_norm)
    # dominance-based lower bound on the all-projector term
    prod = None
    for y in problem.args:
        prod = y if prod is None else mat_mul(prod, y)
    prod_norm = frobenius_norm(prod) if prod is not None else 1.0
    rest = sum(per_norm[1:])
    condition = beta_min * prod_norm >= rest
    min_beta_lower = beta_min * prod_norm - rest if condition else None
    return NormBoundReport(per_pattern_norms=per_norm,
                           per_pattern_upper=per_up,
                           upper_bound=sum(per_up),
                           actual_norm=actual,
                           sorted_lower=sorted_lower,
                           min_beta_lower=min_beta_lower,
                           condition_holds=condition,
                           upsilon=sum(sc for _, sc in uppers))


def lipschitz_check(problem, args_alt, budget=None):
    """(actual, bound) for |T(Y) - T(Y')| with Y = problem.args and
    Y' = args_alt: telescoping bound with the scalar coefficient of the
    norm report (upsilon) applied slot by slot."""
    zeta = problem.zeta
    args_alt = tuple(args_alt)
    if len(args_alt) != zeta:
        raise AnalysisError("need one alternate argument per slot")
    problem = problem.tabulated()
    ups = sum(sc for _, sc in _pattern_uppers(problem)[0])
    ny = [frobenius_norm(y) for y in problem.args]
    ny2 = [frobenius_norm(y) for y in args_alt]
    bound = 0.0
    for i in range(zeta):
        term = ups * frobenius_norm(problem.args[i] - args_alt[i])
        for j in range(i):
            term *= ny2[j]
        for j in range(i + 1, zeta):
            term *= ny[j]
        bound += term
    t1 = eval_gmoi(problem, budget=budget)
    t2 = eval_gmoi(GmoiProblem(problem.beta, problem.params, args_alt),
                   budget=budget)
    return frobenius_norm(t1 - t2), bound


# ---------------------------------------------------------------------------
# perturbation corrections

def _insert(seq, pos, *middle):
    """``seq`` as a tuple with ``middle`` inserted before index ``pos``."""
    return tuple(seq[:pos]) + middle + tuple(seq[pos:])


def _cross_reads(flank_modes, pos, nilpotent_pair):
    """One correction as signed reads (sign, walk, mode tuple) of the
    walks of ``_pair_walks``, in the order they are summed."""
    pairs = (("N", "P"), ("P", "N")) if nilpotent_pair else (("P", "P"),)
    single = _insert(flank_modes, pos, "N" if nilpotent_pair else "P")
    return ([(1, 0, _insert(flank_modes, pos, *p)) for p in pairs]
            + [(-1, 1, single), (1, 2, single)])


def _pair_walks(beta_small, beta_big, flank_decs, pos, c_dec, d_dec, args,
                reads, budget):
    """The three walks that the lists of ``reads`` need, each a
    {mode tuple: Matrix}: walk 0 is the pair problem, with C, D at
    ``pos`` and C - D between them, and walks 1 and 2 are the small
    problems with C and with D there, which share one table."""
    keys = [[], [], []]
    for _, walk, key in itertools.chain(*reads):
        keys[walk].append(key)
    beta_small = beta_small.tabulated()
    diff = c_dec.reconstruct() - d_dec.reconstruct()
    return [eval_modes(GmoiProblem(beta_big,
                                   _insert(flank_decs, pos, c_dec, d_dec),
                                   _insert(args, pos, diff)),
                       keys[0], budget=budget)] + [
        eval_modes(GmoiProblem(beta_small, _insert(flank_decs, pos, dec),
                               args), walk_keys, budget=budget)
        for dec, walk_keys in ((c_dec, keys[1]), (d_dec, keys[2]))]


def _sum_reads(walks, reads):
    (_, walk, key), *rest = reads
    out = walks[walk][key]
    for sign, walk, key in rest:
        out = out + walks[walk][key] if sign > 0 else out - walks[walk][key]
    return out


def operational_cross_term(beta_small, beta_big, slots, pair_pos, c_dec,
                           d_dec, nilpotent_pair, args, budget=None):
    """One named perturbation correction, computed from its defining
    rearrangement as a combination of mode-restricted integrals:

    P-pair label:  T_big(pair modes P,P; C-D) - T_small(C, P) + T_small(D, P)
    N-pair label:  T_big(pair modes N,P; C-D) + T_big(pair modes P,N; C-D)
                   - T_small(C, N) + T_small(D, N)

    with the flank slots held at the modes given in ``slots``, a
    (decomposition, mode) pair per non-pair slot. Summed over all labels
    these cancel the difference of the unrestricted one-parameter
    integrals against the non-(N,N) part of the two-parameter integral,
    which is what the perturbation identity asserts.
    """
    reads = _cross_reads([mode for _, mode in slots], pair_pos,
                         nilpotent_pair)
    return _sum_reads(_pair_walks(beta_small, beta_big,
                                  [dec for dec, _ in slots], pair_pos,
                                  c_dec, d_dec, args, [reads], budget),
                      reads)


@dataclass
class PerturbationReport:
    lhs: Matrix
    rhs_main: Matrix
    corrections: dict          # label -> Matrix
    trailing: dict             # label -> Matrix
    rhs_total: Matrix
    residual: float


def _perturbation_report(beta_small, beta_big, params, j, c_dec, d_dec, args,
                         budget):
    """The perturbation identity with the C/D pair in slot j of the
    zeta + 1 slots, between parameters j - 1 and j (1-based) of
    ``params``; j = 1 has no left flank. Every integral is a mode
    restriction of one of three walks (see ``_pair_walks``)."""
    pos = j - 1
    full = ("full",) * (len(params) + 2)
    lhs = [(1, 0, full)]
    main = [(1, 1, full[1:]), (-1, 2, full[1:])]
    corrections = {}            # label -> reads, as ``_cross_reads``
    trailing = {}
    for left in ("P", "N") if j > 1 else (None,):
        flank = ["full"] * len(params)
        tag = ""
        if left:
            flank[j - 2] = left
            tag = f"X{j - 1}_{left},"
        for nil_pair, pair_tag in ((False, "C_P,D_P"), (True, "C_N,D_N")):
            for right in ("P", "N"):
                flank[j - 1] = right
                corrections[f"X[{tag}{pair_tag},X{j}_{right}]"] = \
                    _cross_reads(flank, pos, nil_pair)
        for right in ("P", "N"):
            flank[j - 1] = right
            trailing[f"T[{tag}C_N,D_N,X{j}_{right}]"] = [
                (1, 0, _insert(flank, pos, "N", "N"))]
    walks = _pair_walks(beta_small, beta_big, params, pos, c_dec, d_dec,
                        args, [lhs, main, *corrections.values(),
                               *trailing.values()], budget)
    lhs, main = _sum_reads(walks, lhs), _sum_reads(walks, main)
    corrections, trailing = (
        {label: _sum_reads(walks, reads) for label, reads in part.items()}
        for part in (corrections, trailing))
    rhs = main
    for m in [*corrections.values(), *trailing.values()]:
        rhs = rhs + m
    return PerturbationReport(lhs=lhs, rhs_main=main, corrections=corrections,
                              trailing=trailing, rhs_total=rhs,
                              residual=frobenius_norm(lhs - rhs))


def perturbation_check_gdoi(beta1, beta2, c_dec, d_dec, x1_dec, y,
                            budget=None):
    """Residual of the first-order (one argument) perturbation identity:
    T_{b2}^{C,D,X1}(C-D, Y) against the difference of the order-1
    integrals plus the four named corrections and two trailing
    nilpotent-restricted terms."""
    return _perturbation_report(beta1, beta2, [x1_dec], 1, c_dec, d_dec,
                                [y], budget)


def perturbation_check_general(beta_small, beta_big, params, j, c_dec, d_dec,
                               args, budget=None):
    """Residual of the interior-slot perturbation identity: slot j holds
    the C/D pair, flanked by parameters j-1 and j.

    params: the zeta parameter decompositions (without C, D);
    args: the zeta argument matrices (without the C-D argument).
    """
    params = list(params)
    zeta = len(params)
    if zeta < 2 or not 2 <= j <= zeta:
        raise AnalysisError(
            f"slot j={j} needs 2 <= j <= zeta={zeta} (interior pair)")
    if beta_small.arity != zeta + 1 or beta_big.arity != zeta + 2:
        raise AnalysisError("divided-difference lift orders do not match")
    return _perturbation_report(beta_small, beta_big, params, j, c_dec,
                                d_dec, list(args), budget)


# ---------------------------------------------------------------------------
# continuity

@dataclass
class ContinuityReport:
    steps: list
    residuals: list
    slope: float | None


def continuity_experiment(problem, directions, steps, tol=1e-9, budget=None):
    """Residuals |T(params at t) - T(params at 0)| along a step sequence,
    with each perturbed parameter re-decomposed automatically; raises
    StructureInstabilityError if a perturbed matrix changes its Jordan
    block signature."""
    directions = list(directions)
    if len(directions) != len(problem.params):
        raise AnalysisError("need one direction matrix per parameter")
    problem = problem.tabulated()
    base = eval_gmoi(problem, budget=budget)
    base_sigs = [d.signature() for d in problem.params]
    mats = [d.reconstruct().to_float() for d in problem.params]
    dirs = [e.to_float() for e in directions]
    residuals = []
    for t in steps:
        decs = []
        for x, e, sig in zip(mats, dirs, base_sigs):
            if e.is_zero():
                dec = decompose(x, tol=tol, mode="auto")
            else:
                dec = decompose(x + e.scale(t), tol=tol, mode="auto")
            if dec.signature() != sig:
                raise StructureInstabilityError(
                    f"Jordan structure changed at t={t}: "
                    f"{dec.signature()} != {sig}")
            decs.append(dec)
        val = eval_gmoi(GmoiProblem(problem.beta, decs,
                                    [a.to_float() for a in problem.args]),
                        budget=budget)
        residuals.append(frobenius_norm(val - base.to_float()))
    slope = None
    pos = [(t, r) for t, r in zip(steps, residuals) if r > 0 and t > 0]
    if len(pos) >= 2:
        import numpy as np
        ts = np.log([p[0] for p in pos])
        rs = np.log([p[1] for p in pos])
        slope = float(np.polyfit(ts, rs, 1)[0])
    return ContinuityReport(steps=list(steps), residuals=residuals,
                            slope=slope)
