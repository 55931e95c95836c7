"""Spectral-sum core: every evaluator in this package is a sum over
per-slot choices from Jordan decompositions.

Each slot independently picks a distinct eigenvalue and either its
projector P (derivative order 0) or a power N**q of its nilpotent part
(order q, 1 <= q < longest chain); the term's coefficient is the symbol's
mixed partial at the chosen eigenvalues divided by prod q_j!. The
coefficient depends only on (eigenvalue, order), so one option covers all
chains of an eigenvalue. Restricting a slot's choices to P only or N only
realizes every mode-restricted variant used downstream.

Sums are evaluated in Jordan coordinates: with X_j = V_j J_j V_j^-1 every
factor is V_j E V_j^-1 for a 0/1 shift E, so a term needs no dense
product of its own, only row and column moves (see ``eval_slot_sum``).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .jordan import shift_factor
from .numerics import QC, Matrix, mat_mul, scalar

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, needed, budget):
        super().__init__(
            f"term budget exceeded: {needed} terms > budget {budget}")
        self.needed = needed
        self.budget = budget


def effective_budget(budget=None):
    if budget is not None:
        return budget
    env = os.environ.get("GMOI_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


@dataclass(frozen=True, eq=False)
class SlotChoice:
    """One option of a slot: a distinct eigenvalue of ``dec`` and an order
    q below its longest chain. ``pairs`` are the positions of the ones of
    the 0/1 matrix E, the q-th shift power on the eigenvalue's chains in
    the column order of ``dec.transform``; the slot factor is V E V^-1."""
    eigenvalue: object
    order: int
    pairs: tuple
    dec: object         # JordanDecomposition

    @functools.cached_property
    def factor(self):
        """The dense factor V E V^-1: the projector P for order 0, else
        the nilpotent power N**q."""
        return shift_factor(self.dec.transform, self.dec.transform_inv,
                            self.pairs)


def slot_options(dec, mode="full"):
    """Choices for one slot of a spectral sum: (eigenvalue, order) per
    distinct eigenvalue, order 0 for P and 1 <= q < m for N**q, where m is
    the eigenvalue's longest chain.

    mode: "full" (both), "P" (projectors only), "N" (nilpotent powers only).
    """
    if mode not in ("full", "P", "N"):
        raise ValueError(f"unknown slot mode {mode!r}")
    first = 1 if mode == "N" else 0
    return [SlotChoice(comp.eigenvalue, q, comp.shifts[q], dec)
            for comp in dec.components
            for q in range(first, 1 if mode == "P" else comp.order)]


def count_terms(option_lists):
    c = 1
    for opts in option_lists:
        c *= len(opts)
    return c


def _add_column_shift(acc, m, pairs):
    """acc += m E, for the 0/1 matrix E with ones at ``pairs``: column i of
    m is added to column k of acc for each (i, k)."""
    for row, mrow in zip(acc, m):
        for i, k in pairs:
            row[k] = row[k] + mrow[i]


def eval_slot_sum(symbol, option_lists, interleave=None, dim=None,
                  exact=False, budget=None):
    """Sum over all per-slot choice combinations of
    coeff * F_1 A_1 F_2 A_2 ... A_{r-1} F_r where F_j is the chosen factor,
    the A_j are the ``interleave`` matrices (absent when None), and
    coeff = symbol.partial(orders, eigenvalues) / prod(orders!).

    Each option list comes from one decomposition X_j = V_j J_j V_j^-1, so
    F_j = V_j E_j V_j^-1 and the sum is V_1 [sum coeff E_1 B_1 ... E_r B_r]
    with B_j = V_j^-1 A_j V_{j+1} for j < r and B_r = V_r^-1. Multiplying
    by an E_j moves rows or columns. The contraction runs depth-first from
    the last slot inward: for each choice of the outer options, the first
    slot sums row-shifted copies of B_1; each later slot sums
    column-shifted partial products and multiplies the sum by its B_j.
    The coefficients come from ``symbol.tabulated()``, so the sum computes
    each divided difference once.
    """
    budget = effective_budget(budget)
    needed = count_terms(option_lists)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    r = len(option_lists)
    if interleave is None:
        interleave = [None] * (r - 1)
    if len(interleave) != r - 1:
        raise ValueError("need one interleaved argument between slots")
    if dim is None:
        dim = option_lists[0][0].dec.dim
    if not needed:
        return Matrix.zeros(dim, exact)
    symbol = symbol.tabulated()
    decs = [opts[0].dec for opts in option_lists]
    basis = []
    for j in range(r - 1):
        left = decs[j].transform_inv
        if interleave[j] is not None:
            left = mat_mul(left, interleave[j])
        basis.append(mat_mul(left, decs[j + 1].transform))
    basis.append(decs[-1].transform_inv)
    first = basis[0].rows
    zero = QC(0) if exact else 0j
    lams = [None] * r
    orders = [0] * r

    def coefficient():
        coeff = symbol.partial(orders, lams)
        if not coeff:
            return None
        denom = 1
        for q in orders:
            denom *= math.factorial(q)
        if denom != 1:
            coeff = coeff / denom
        return scalar(coeff, exact)

    def contract(j):
        """sum over the options of slots 1..j of coeff E_1 B_1 ... E_j B_j
        for the options chosen in the later slots, as rows; None when
        every coefficient vanishes."""
        acc = None
        for choice in option_lists[j]:
            lams[j] = choice.eigenvalue
            orders[j] = choice.order
            if j == 0:
                c = coefficient()
                if c is None:
                    continue
                if acc is None:
                    acc = [[zero] * dim for _ in range(dim)]
                for i, k in choice.pairs:
                    acc[i] = [x + c * y for x, y in zip(acc[i], first[k])]
            else:
                m = contract(j - 1)
                if m is None:
                    continue
                if acc is None:
                    acc = [[zero] * dim for _ in range(dim)]
                _add_column_shift(acc, m, choice.pairs)
        if acc is None or j == 0:
            return acc
        return mat_mul(Matrix(acc, exact=exact), basis[j]).rows

    total = contract(r - 1)
    # contract holds itself through its closure cell; clearing the cell
    # frees the tabulated symbol's table now, not at a later full garbage
    # collection, which long runs of slot sums reach late
    del contract
    if total is None:
        return Matrix.zeros(dim, exact)
    return mat_mul(decs[0].transform, Matrix(total, exact=exact))


def eval_univariate(f, dec, budget=None):
    """f(X) from the Jordan decomposition of X."""
    if f.arity != 1:
        raise ValueError("eval_univariate needs a univariate function")
    return eval_slot_sum(f, [slot_options(dec)], dim=dec.dim,
                         exact=dec.exact, budget=budget)


def eval_multivariate(f, decs, budget=None):
    """The multivariate matrix function f(X_1, ..., X_r): spectral sum
    with adjacent factors multiplied directly."""
    if f.arity != len(decs):
        raise ValueError("arity does not match number of matrices")
    return eval_slot_sum(f, [slot_options(d) for d in decs],
                         dim=decs[0].dim, exact=decs[0].exact, budget=budget)


def moi_as_spectral_map(beta, param_decs, arg_decs, budget=None):
    """Evaluate a multiple operator integral as the multivariate matrix
    function of the product symbol beta(z_1, z_3, ...) z_2 z_4 ...; the
    integrated arguments occupy the linear even slots."""
    from .functions import product_symbol
    f = product_symbol(beta, len(arg_decs))
    decs = []
    for j, p in enumerate(param_decs):
        decs.append(p)
        if j < len(arg_decs):
            decs.append(arg_decs[j])
    return eval_multivariate(f, decs, budget=budget)
