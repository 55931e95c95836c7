"""Generalized multiple operator integrals.

A problem bundles the scalar symbol beta (arity zeta+1), the Jordan
decompositions of the zeta+1 parameter matrices, and the zeta integrated
argument matrices. Evaluation is the slot sum of :mod:`spectral_map`: one
option per distinct eigenvalue and order in each slot, the arguments
interleaved between the slot factors, evaluated in Jordan coordinates
(each argument enters once, as V_j^-1 A_j V_{j+1}). Per-slot mode
restrictions (P or N options only) give the nilpotent-pattern terms and
every sub-sum used by the analysis and derivative layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .numerics import Matrix, mat_mul
from .spectral_map import (DEFAULT_BUDGET, BudgetExceededError,
                           effective_budget, eval_slot_sum, slot_options)


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class GmoiProblem:
    beta: object                 # MultiFunction, arity zeta+1
    params: tuple                # zeta+1 JordanDecompositions
    args: tuple                  # zeta Matrices
    budget: int = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "args", tuple(self.args))
        if self.beta.arity != len(self.params):
            raise EngineError(
                f"symbol arity {self.beta.arity} != number of parameters "
                f"{len(self.params)}")
        if len(self.args) != len(self.params) - 1:
            raise EngineError(
                "need one argument between consecutive parameters")
        dims = {d.dim for d in self.params} | {a.dim for a in self.args}
        if len(dims) != 1:
            raise EngineError(f"mixed dimensions {sorted(dims)}")

    @property
    def zeta(self):
        return len(self.args)

    @property
    def dim(self):
        return self.params[0].dim

    @property
    def exact(self):
        return self.params[0].exact

    def tabulated(self):
        """The problem with ``beta.tabulated()``: the integrals of one
        report evaluated on it share one divided-difference table."""
        beta = self.beta.tabulated()
        return self if beta is self.beta else replace(self, beta=beta)


@dataclass(frozen=True)
class NilpotentPattern:
    """Which parameter slots take nilpotent (vs projector) factors in one
    pattern term: index i' in [0, 2**(zeta+1)), bits most significant
    first, bit 1 = nilpotent slot."""
    index: int
    width: int

    @property
    def bits(self):
        return binary_selector(self.index, self.width)

    @property
    def selected(self):
        """1-based nilpotent slot positions."""
        return tuple(j + 1 for j, b in enumerate(self.bits) if b)

    @property
    def modes(self):
        return tuple("N" if b else "P" for b in self.bits)


def binary_selector(i, width):
    """Most-significant-bit-first binary digits of i as a 0/1 tuple."""
    if not 0 <= i < 2 ** width:
        raise EngineError(f"selector index {i} out of range for width {width}")
    return tuple((i >> (width - 1 - j)) & 1 for j in range(width))


def eval_gmoi(problem, modes=None, budget=None):
    """Evaluate the integral; ``modes`` optionally restricts each
    parameter slot to "P", "N", or "full" (default)."""
    r = problem.zeta + 1
    if modes is None:
        modes = ("full",) * r
    if len(modes) != r:
        raise EngineError("need one mode per parameter slot")
    opts = [slot_options(d, m) for d, m in zip(problem.params, modes)]
    if any(not o for o in opts):
        return Matrix.zeros(problem.dim, problem.exact)
    return eval_slot_sum(problem.beta, opts, interleave=list(problem.args),
                         dim=problem.dim, exact=problem.exact,
                         budget=budget if budget is not None else problem.budget)


def eval_classical_moi(problem, budget=None):
    """Classical multiple operator integral: requires every parameter to
    be diagonalizable (all nilpotent parts zero)."""
    for j, d in enumerate(problem.params):
        if any(b.order > 1 for b in d.blocks):
            raise EngineError(
                f"parameter {j + 1} has a nontrivial Jordan block; "
                "classical evaluation needs diagonalizable parameters")
    return eval_gmoi(problem, modes=("P",) * (problem.zeta + 1),
                     budget=budget)


def pattern_terms(problem, budget=None):
    """The 2**(zeta+1) nilpotent-pattern terms A_{i'} whose sum is the
    integral: term i' restricts slot j to N if bit j of i' (MSB first) is
    set, else P."""
    problem = problem.tabulated()
    r = problem.zeta + 1
    out = []
    for i in range(2 ** r):
        pat = NilpotentPattern(i, r)
        out.append((pat, eval_gmoi(problem, modes=pat.modes, budget=budget)))
    return out


def decompose_by_parameters(problem, budget=None):
    """The 2**(zeta+1) sub-integrals indexed i = 1..2**(zeta+1) where slot
    j is nilpotent-restricted iff bit j-1 (least significant first) of
    i - 1 is set. Their sum equals the full integral."""
    problem = problem.tabulated()
    r = problem.zeta + 1
    out = []
    for i in range(1, 2 ** r + 1):
        modes = tuple("N" if ((i - 1) >> j) & 1 else "P" for j in range(r))
        out.append((i, modes, eval_gmoi(problem, modes=modes, budget=budget)))
    return out


def compose_check(f, betas, params, args, budget=None):
    """Composition identity: the integral of the flattened product symbol
    over the expanded parameter list, with identities padding each inner
    group, equals the outer integral applied to the inner results.

    Returns (lhs, rhs, residual_norm).
    """
    from .functions import separable_product
    from .numerics import frobenius_norm

    zeta = len(betas)
    if f.arity != zeta + 1 or len(params) != zeta + 1 or len(args) != zeta:
        raise EngineError("composition shapes do not match")
    dim = params[0].dim
    exact = params[0].exact
    ident = Matrix.identity(dim, exact)

    # inner integrals share parameters and arguments, differ in symbol
    inners = [eval_gmoi(GmoiProblem(b, params, args), budget=budget)
              for b in betas]
    rhs = eval_gmoi(GmoiProblem(f, params, inners), budget=budget)

    # flattened side: outer slot p, then a full copy of the parameter
    # list (the group for beta_p), repeating, closing with the last outer
    big_params = []
    layout = [[]]                      # layout[0] = outer positions
    big_args = []
    pos = 0
    for p in range(zeta):
        big_params.append(params[p])
        layout[0].append(pos)
        pos += 1
        big_args.append(ident)
        group = []
        for x in params:
            big_params.append(x)
            group.append(pos)
            pos += 1
        layout.append(group)
        big_args.extend(args)
        big_args.append(ident)
        # interleave: I before the group, Y's within, I after
    big_params.append(params[zeta])
    layout[0].append(pos)
    big_symbol = separable_product(f, betas, layout)
    lhs = eval_gmoi(GmoiProblem(big_symbol, big_params, big_args),
                    budget=budget)
    return lhs, rhs, frobenius_norm(lhs - rhs)
