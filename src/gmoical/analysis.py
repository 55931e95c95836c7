"""Norm bounds, Lipschitz estimates, perturbation-identity verification,
and the continuity experiment for generalized multiple operator integrals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .engine import (GmoiProblem, NilpotentPattern, eval_gmoi,
                     pattern_terms)
from .jordan import decompose
from .numerics import Matrix, frobenius_norm, mat_mul
from .spectral_map import (BudgetExceededError, effective_budget,
                           slot_options)


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


def _to_cplx(lam):
    return lam if isinstance(lam, complex) else lam.to_complex()


def _grid(dec):
    return [_to_cplx(e) for e in dec.eigenvalues]


def _pattern_upper(problem, pattern, peak, nil_norms):
    """(bound, scalar) for one nilpotent pattern: bound includes the
    argument-norm factors, scalar omits them (used for the Lipschitz
    coefficient). The implicit trailing identity argument has weight 1.
    ``peak(orders)`` is max |partial of beta| over the eigenvalue grid;
    ``nil_norms[j]`` lists (q, |N**q|_F) over the chains of parameter j."""
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
        denom = 1
        nil_factor = 1.0
        for j, (q, nnorm) in zip(selected, combo):
            orders[j] = q
            denom *= math.factorial(q)
            nil_factor *= nnorm
        scalar_total += (peak(tuple(orders)) / denom) * nil_factor
    w_sel = 1.0
    for j in selected:
        w_sel *= weights[j]
    w_unsel = 1.0
    for j in range(r):
        if j not in selected:
            w_unsel *= weights[j]
    return scalar_total * w_sel * w_unsel, scalar_total


def _pattern_uppers(problem):
    """``_pattern_upper`` of each nilpotent pattern, in pattern order; the
    grid peak of each order tuple and the nilpotent-power norms of each
    parameter are computed once for all of them."""
    r = problem.zeta + 1
    grids = [_grid(d) for d in problem.params]
    peaks = {}

    def peak(orders):
        if orders not in peaks:
            top = 0.0
            for lams in itertools.product(*grids):
                v = abs(problem.beta.partial(orders, lams))
                if v > top:
                    top = v
            peaks[orders] = top
        return peaks[orders]

    nil_norms = [[(q, frobenius_norm(npow)) for b in d.blocks
                  for q, npow in enumerate(b.powers, 1)]
                 for d in problem.params]
    return [_pattern_upper(problem, NilpotentPattern(i, r), peak, nil_norms)
            for i in range(2 ** r)]


def norm_report(problem, budget=None):
    """Per-pattern actual norms and upper bounds, the summed upper bound,
    and both lower bounds."""
    problem = problem.tabulated()
    terms = pattern_terms(problem, budget=budget)
    per_norm = [frobenius_norm(t) for _, t in terms]
    uppers = _pattern_uppers(problem)
    per_up = [up for up, _ in uppers]
    total = Matrix.zeros(problem.dim, problem.exact)
    for _, t in terms:
        total = total + t
    actual = frobenius_norm(total)
    sorted_lower = reverse_triangle_lower(per_norm)
    # dominance-based lower bound on the all-projector term
    grids = [_grid(d) for d in problem.params]
    beta_min = min(abs(problem.beta.eval(*lams))
                   for lams in itertools.product(*grids))
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
    ups = sum(sc for _, sc in _pattern_uppers(problem))
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

def _chain_positions(positions, args):
    out = positions[0]
    for k in range(1, len(positions)):
        out = mat_mul(out, args[k - 1])
        out = mat_mul(out, positions[k])
    return out


def explicit_cross_term(beta_small, beta_big, slots, pair_pos, c_dec, d_dec,
                        nilpotent_pair, args, budget=None):
    """One named correction term, assembled literally as a sum over the
    per-slot choices of the non-pair slots and the block/power choices of
    the C/D pair.

    slots: (decomposition, mode) per non-pair product position, in order;
    pair_pos: index of the pair among the product positions;
    nilpotent_pair: False for the C_P/D_P label (single sub-sum), True for
    C_N/D_N (four sub-sums, the last one signed negative);
    args: interleaved argument matrices (one per gap; the pair position
    absorbs the C-D argument of the source integral).
    """
    dim = c_dec.dim
    exact = c_dec.exact
    zero = Matrix.zeros(dim, exact)
    if len(args) != len(slots):
        raise AnalysisError("cross term needs one argument per gap")
    option_lists = [slot_options(dec, mode) for dec, mode in slots]
    need = 1
    for o in option_lists:
        need *= max(len(o), 1)
    need *= max(sum(b.order for b in c_dec.blocks), 1)
    need *= max(sum(b.order for b in d_dec.blocks), 1)
    if need > effective_budget(budget):
        raise BudgetExceededError(need, effective_budget(budget))
    if any(not o for o in option_lists):
        return zero
    out = zero
    for combo in itertools.product(*option_lists):
        lams = [c.eigenvalue for c in combo]
        orders = [c.order for c in combo]
        denom0 = 1
        for q in orders:
            denom0 *= math.factorial(q)
        factors = [c.factor for c in combo]

        def add(sign, beta, lam_mid, ord_mid, extra_fact, middle):
            nonlocal out
            lam_full = lams[:pair_pos] + list(lam_mid) + lams[pair_pos:]
            ord_full = orders[:pair_pos] + list(ord_mid) + orders[pair_pos:]
            coeff = beta.partial(ord_full, lam_full) / (denom0 * extra_fact)
            if not coeff:
                return
            positions = factors[:pair_pos] + [middle] + factors[pair_pos:]
            out = out + _chain_positions(positions, args).scale(
                coeff if sign > 0 else -coeff)

        for cb in c_dec.blocks:
            for db in d_dec.blocks:
                lc, ld = cb.eigenvalue, db.eigenvalue
                cn = list(enumerate(cb.powers, 1))
                dn = list(enumerate(db.powers, 1))
                if not nilpotent_pair:
                    for qc, ncq in cn:
                        for qd, ndq in dn:
                            mid = mat_mul(mat_mul(cb.projector, ncq - ndq),
                                          db.projector)
                            add(+1, beta_big, (lc, ld), (0, 0), 1, mid)
                else:
                    for qc, ncq in cn:
                        for qd, ndq in dn:
                            mid = mat_mul(cb.projector, mat_mul(ncq - ndq, ndq))
                            add(+1, beta_big, (lc, ld), (0, qd),
                                math.factorial(qd), mid)
                            mid = mat_mul(mat_mul(ncq, ncq - ndq), db.projector)
                            add(+1, beta_big, (lc, ld), (qc, 0),
                                math.factorial(qc), mid)
                    for qd, ndq in dn:
                        add(+1, beta_small, (lc,), (qd,),
                            math.factorial(qd), mat_mul(cb.projector, ndq))
                    for qc, ncq in cn:
                        add(-1, beta_small, (ld,), (qc,),
                            math.factorial(qc), mat_mul(ncq, db.projector))
    return out


def operational_cross_term(beta_small, beta_big, slots, pair_pos, c_dec,
                           d_dec, nilpotent_pair, args, budget=None):
    """The same named correction, computed from its defining rearrangement
    as a combination of mode-restricted integrals:

    P-pair label:  T_big(pair modes P,P; C-D) - T_small(C, P) + T_small(D, P)
    N-pair label:  T_big(pair modes N,P; C-D) + T_big(pair modes P,N; C-D)
                   - T_small(C, N) + T_small(D, N)

    with the flank slots held at the modes given in ``slots``. Summed over
    all labels these cancel the difference of the unrestricted one-parameter
    integrals against the non-(N,N) part of the two-parameter integral,
    which is what the perturbation identity asserts.
    """
    flank_decs = [dec for dec, _ in slots]
    flank_modes = [mode for _, mode in slots]
    diff = c_dec.reconstruct() - d_dec.reconstruct()

    def big(mc, md):
        params = flank_decs[:pair_pos] + [c_dec, d_dec] + flank_decs[pair_pos:]
        gaps = list(args[:pair_pos]) + [diff] + list(args[pair_pos:])
        modes = (tuple(flank_modes[:pair_pos]) + (mc, md)
                 + tuple(flank_modes[pair_pos:]))
        return eval_gmoi(GmoiProblem(beta_big, params, gaps), modes=modes,
                         budget=budget)

    def small(dec, m):
        params = flank_decs[:pair_pos] + [dec] + flank_decs[pair_pos:]
        modes = (tuple(flank_modes[:pair_pos]) + (m,)
                 + tuple(flank_modes[pair_pos:]))
        return eval_gmoi(GmoiProblem(beta_small, params, args), modes=modes,
                         budget=budget)

    if nilpotent_pair:
        return (big("N", "P") + big("P", "N")
                - small(c_dec, "N") + small(d_dec, "N"))
    return big("P", "P") - small(c_dec, "P") + small(d_dec, "P")


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
    ``params``; j = 1 has no left flank."""
    beta_small = beta_small.tabulated()
    beta_big = beta_big.tabulated()
    diff = c_dec.reconstruct() - d_dec.reconstruct()
    before, after = params[:j - 1], params[j - 1:]
    params_big = before + [c_dec, d_dec] + after
    args_big = args[:j - 1] + [diff] + args[j - 1:]
    lhs = eval_gmoi(GmoiProblem(beta_big, params_big, args_big),
                    budget=budget)
    main = (eval_gmoi(GmoiProblem(beta_small, before + [c_dec] + after,
                                  args), budget=budget)
            - eval_gmoi(GmoiProblem(beta_small, before + [d_dec] + after,
                                    args), budget=budget))
    corrections = {}
    trailing = {}
    for left in ("P", "N") if j > 1 else (None,):
        flank = [(p, "full") for p in params]
        tag = ""
        if left:
            flank[j - 2] = (params[j - 2], left)
            tag = f"X{j - 1}_{left},"
        for nil_pair, pair_tag in ((False, "C_P,D_P"), (True, "C_N,D_N")):
            for right in ("P", "N"):
                flank[j - 1] = (params[j - 1], right)
                corrections[f"X[{tag}{pair_tag},X{j}_{right}]"] = \
                    operational_cross_term(beta_small, beta_big, flank,
                                           j - 1, c_dec, d_dec, nil_pair,
                                           args, budget=budget)
        for right in ("P", "N"):
            flank[j - 1] = (params[j - 1], right)
            modes = [m for _, m in flank]
            trailing[f"T[{tag}C_N,D_N,X{j}_{right}]"] = eval_gmoi(
                GmoiProblem(beta_big, params_big, args_big),
                modes=modes[:j - 1] + ["N", "N"] + modes[j - 1:],
                budget=budget)
    rhs = main
    for m in corrections.values():
        rhs = rhs + m
    for m in trailing.values():
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
