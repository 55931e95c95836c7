"""Reference norm bound: the paper's per-pattern upper bounds with the grid
peak taken by brute force.

For each order tuple, the peak is max |beta.partial(orders, lams)| over
every point of the eigenvalue grids, one partial per point, divided by
prod(orders!) where the pattern sums, and the grid minimum of |beta| is
one evaluation per point. The package reads both off its coefficient
table; the tests compare the two.
"""

import itertools
import math

from gmoical import NilpotentPattern, frobenius_norm, mat_mul
from gmoical.numerics import scalar


def pattern_uppers(problem):
    """(bound, scalar) of each nilpotent pattern, in pattern order: bound
    includes the argument-norm factors, scalar omits them."""
    r = problem.zeta + 1
    grids = [[scalar(e) for e in d.eigenvalues] for d in problem.params]
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
    weights = [frobenius_norm(y) for y in problem.args] + [1.0]
    out = []
    for i in range(2 ** r):
        bits = NilpotentPattern(i, r).bits
        selected = [j for j in range(r) if bits[j]]
        scalar_total = 0.0
        for combo in itertools.product(*(nil_norms[j] for j in selected)):
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
        out.append((scalar_total * w_sel * w_unsel, scalar_total))
    return out


def beta_min(problem):
    """min |beta| over the eigenvalue grid, one evaluation per point."""
    grids = [[scalar(e) for e in d.eigenvalues] for d in problem.params]
    return min(abs(problem.beta.eval(*lams))
               for lams in itertools.product(*grids))


def min_beta_lower(problem, per_pattern_norms):
    """The dominance lower bound of ``norm_report`` on the reference grid
    minimum, given the report's per-pattern norms; None when the dominance
    condition fails."""
    prod = problem.args[0]
    for y in problem.args[1:]:
        prod = mat_mul(prod, y)
    dominant = beta_min(problem) * frobenius_norm(prod)
    rest = sum(per_pattern_norms[1:])
    return dominant - rest if dominant >= rest else None


def lipschitz_bound(problem, args_alt):
    """The telescoping bound of ``lipschitz_check`` on the reference
    upsilon."""
    ups = sum(sc for _, sc in pattern_uppers(problem))
    ny = [frobenius_norm(y) for y in problem.args]
    ny2 = [frobenius_norm(y) for y in args_alt]
    bound = 0.0
    for i in range(problem.zeta):
        term = ups * frobenius_norm(problem.args[i] - args_alt[i])
        for j in range(i):
            term *= ny2[j]
        for j in range(i + 1, problem.zeta):
            term *= ny[j]
        bound += term
    return bound
