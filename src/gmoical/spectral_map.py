"""Spectral-sum core: every evaluator in this package is a sum over
per-slot choices from Jordan decompositions.

Each slot independently picks a distinct eigenvalue and either its
projector P (derivative order 0) or a power N**q of its nilpotent part
(order q, 1 <= q < longest chain); the term's coefficient is the symbol's
Taylor coefficient at the chosen eigenvalues, its mixed partial divided by
prod q_j!, read from the symbol's coefficient table under the sum of the
options' integer keys. The coefficient depends only on (eigenvalue,
order), so one option covers all chains of an eigenvalue. Restricting a slot's choices to P only or N only
realizes every mode-restricted variant used downstream, and one walk
returns any number of such restrictions at once (the ``keys`` of
``eval_slot_sum``), computing the basis changes and coefficients once.

Sums are evaluated in Jordan coordinates: with X_j = V_j J_j V_j^-1 every
factor is V_j E V_j^-1 for a 0/1 shift E, so a term needs no dense
product of its own, only row and column moves (see ``eval_slot_sum``).
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass

from .numerics import QC, Matrix, mat_mul

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """A slot sum needs more terms than the budget allows. ``dim``,
    ``options`` (the option count of each slot) and ``keys`` (the requested
    mode tuples, None for a plain sum) name the walk."""

    def __init__(self, needed, budget, dim, options, keys=None):
        walk = f"dim {dim}, options per slot {list(options)}"
        if keys is not None:
            walk += ", modes " + " ".join(f"({','.join(k)})" for k in keys)
        super().__init__(
            f"term budget exceeded: {needed} terms > budget {budget} "
            f"({walk})")
        self.needed = needed
        self.budget = budget
        self.dim = dim
        self.options = tuple(options)
        self.keys = None if keys is None else tuple(map(tuple, keys))


def effective_budget(budget=None):
    """``budget``, else the environment's GMOI_BUDGET, else
    ``DEFAULT_BUDGET``; ValueError, naming the source, for a negative
    budget or a GMOI_BUDGET that is not an integer."""
    source = "term budget"
    if budget is None:
        env = os.environ.get("GMOI_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        source = "GMOI_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(
                f"GMOI_BUDGET={env!r} is not an integer") from None
    if budget < 0:
        raise ValueError(f"{source} {budget} is negative")
    return budget


@dataclass(frozen=True, eq=False)
class SlotChoice:
    """One option of a slot: a distinct eigenvalue of the slot's
    decomposition and an order q below its longest chain. ``pairs`` are
    the positions of the ones of the 0/1 matrix E, the q-th shift power on
    the eigenvalue's chains in the column order of the decomposition's
    transform V; the slot factor is V E V^-1."""
    eigenvalue: object
    order: int
    pairs: tuple


def slot_options(dec, mode="full"):
    """Choices for one slot of a spectral sum: (eigenvalue, order) per
    distinct eigenvalue, order 0 for P and 1 <= q < m for N**q, where m is
    the eigenvalue's longest chain.

    mode: "full" (both), "P" (projectors only), "N" (nilpotent powers only).
    """
    if mode not in ("full", "P", "N"):
        raise ValueError(f"unknown slot mode {mode!r}")
    first = 1 if mode == "N" else 0
    return [SlotChoice(comp.eigenvalue, q, comp.shifts[q])
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


def eval_slot_sum(symbol, decs, interleave=None, budget=None, keys=None):
    """Sum over all per-slot choice combinations of
    coeff * F_1 A_1 F_2 A_2 ... A_{r-1} F_r where F_j is the chosen factor
    of slot j, an option of ``slot_options(decs[j])``, the A_j are the
    ``interleave`` matrices (absent when None), and coeff is the Taylor
    coefficient partial(orders, eigenvalues) / prod(orders!) of
    ``symbol``. The result has the dimension and arithmetic of
    ``decs[0]``.

    Slot j has the decomposition X_j = V_j J_j V_j^-1, so
    F_j = V_j E_j V_j^-1 and the sum is V_1 [sum coeff E_1 B_1 ... E_r B_r]
    with B_j = V_j^-1 A_j V_{j+1} for j < r and B_r = V_r^-1. Multiplying
    by an E_j moves rows or columns. The contraction runs depth-first from
    the last slot inward: for each choice of the outer options, the first
    slot sums row-shifted copies of B_1; each later slot sums
    column-shifted partial products and multiplies the sum by its B_j.
    The coefficients come from ``symbol.tabulated().coefficient_table``:
    each option has an integer key, the walk adds its slots' keys as it
    descends, and a term's coefficient is one lookup of the sum. For a
    divided-difference lift the keys are count vectors over the distinct
    eigenvalues, so the sum computes each divided difference once.

    With ``keys``, mode tuples of one "P", "N" or "full" per slot, one
    walk returns {key: sum}, each of the terms whose slot j option is a
    projector where the key says "P" and a nilpotent power where it says
    "N". Slot j enumerates the options of the modes that some key admits
    there ("full" unless every key names the same mode), so a lone key
    walks its own restricted options only. Keys that agree on slots 1..j
    share those slots' partial sums, and each sum receives its terms in
    the order of a walk over its own restricted options, so it is the
    same bit for bit.

    The contraction recurses once per slot, so more than
    ``sys.getrecursionlimit() // 4`` slots raise ValueError.
    """
    r = len(decs)
    depth = sys.getrecursionlimit() // 4
    if r > depth:
        raise ValueError(f"slot sum of {r} slots exceeds the limit of "
                         f"{depth} slots (sys.getrecursionlimit() // 4)")
    dim, exact = decs[0].dim, decs[0].exact
    wanted = (("full",) * r,) if keys is None else tuple(
        dict.fromkeys(map(tuple, keys)))
    option_lists = []
    for j, dec in enumerate(decs):
        modes = {k[j] for k in wanted}
        option_lists.append(slot_options(dec, modes.pop() if len(modes) == 1
                                         else "full"))
    budget = effective_budget(budget)
    needed = count_terms(option_lists)
    if needed > budget:
        raise BudgetExceededError(needed, budget, dim,
                                  [len(o) for o in option_lists], keys)
    if interleave is None:
        interleave = [None] * (r - 1)
    if len(interleave) != r - 1:
        raise ValueError("need one interleaved argument between slots")
    if not needed:
        sums = dict.fromkeys(wanted, Matrix.zeros(dim, exact))
        return sums if keys is not None else sums[wanted[0]]
    parts, coeffs = symbol.tabulated().coefficient_table(
        [[(c.eigenvalue, c.order) for c in opts] for opts in option_lists])
    basis = []
    for j in range(r - 1):
        left = decs[j].transform_inv
        if interleave[j] is not None:
            left = mat_mul(left, interleave[j])
        basis.append(mat_mul(left, decs[j + 1].transform))
    basis.append(decs[-1].transform_inv)
    first = basis[0].rows
    zero = QC(0) if exact else 0j

    def contract(j, plan, key):
        """Per head of ``plan`` (see ``_plan``): the sum over the options
        of slots 1..j of coeff E_1 B_1 ... E_j B_j, as rows, for the
        options chosen in the later slots, whose keys sum to ``key``;
        None where every coefficient vanishes."""
        heads, kinds = plan
        accs = [None] * len(heads)
        for choice, part in zip(option_lists[j], parts[j]):
            inner_plan, targets = kinds[choice.order > 0]
            if not targets:
                continue
            if j == 0:
                c = coeffs[key + part]
                if not c:
                    continue
                for h, _ in targets:
                    acc = accs[h]
                    if acc is None:
                        acc = accs[h] = [[zero] * dim for _ in range(dim)]
                    for i, k in choice.pairs:
                        acc[i] = [x + c * y for x, y in zip(acc[i], first[k])]
                continue
            inner = contract(j - 1, inner_plan, key + part)
            for h, ih in targets:
                if inner[ih] is not None:
                    if accs[h] is None:
                        accs[h] = [[zero] * dim for _ in range(dim)]
                    _add_column_shift(accs[h], inner[ih], choice.pairs)
        if j == 0:
            return accs
        return [None if acc is None
                else mat_mul(Matrix._of(acc, exact), basis[j]).rows
                for acc in accs]

    plan = _plan(wanted, r - 1)
    totals = contract(r - 1, plan, 0)
    # contract holds itself through its closure cell; clearing the cell
    # frees the coefficient table now, not at a later full garbage
    # collection, which long runs of slot sums reach late
    del contract
    sums = {k: Matrix.zeros(dim, exact) if rows is None
            else mat_mul(decs[0].transform, Matrix._of(rows, exact))
            for k, rows in zip(wanted, totals)}
    return sums if keys is not None else sums[wanted[0]]


@functools.lru_cache(maxsize=256)
def _plan(keys, j):
    """How the distinct mode tuples ``keys`` route the terms of slot j:
    (heads, kinds). The heads are the distinct key[:j+1], numbered in
    order, one partial sum each. kinds[0] serves projector options and
    kinds[1] nilpotent powers: (the plan of slot j - 1 for the keys that
    admit the kind, ((head, its key[:j] among the inner plan's heads),
    ...))."""
    heads = tuple(dict.fromkeys(k[:j + 1] for k in keys))
    kinds = []
    for kind in "PN":
        sub = tuple(k for k in keys if k[j] in ("full", kind))
        inner = _plan(sub, j - 1) if j and sub else None
        kinds.append((inner, tuple(
            (heads.index(head), inner[0].index(head[:-1]) if j else None)
            for head in dict.fromkeys(k[:j + 1] for k in sub))))
    return heads, tuple(kinds)


def eval_univariate(f, dec, budget=None):
    """f(X) from the Jordan decomposition of X."""
    if f.arity != 1:
        raise ValueError("eval_univariate needs a univariate function")
    return eval_slot_sum(f, [dec], budget=budget)


def eval_multivariate(f, decs, budget=None):
    """The multivariate matrix function f(X_1, ..., X_r): spectral sum
    with adjacent factors multiplied directly."""
    if f.arity != len(decs):
        raise ValueError("arity does not match number of matrices")
    return eval_slot_sum(f, decs, budget=budget)


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
