"""Generalized multiple operator integrals.

A problem bundles the scalar symbol beta (arity zeta+1), the Jordan
decompositions of the zeta+1 parameter matrices, and the zeta integrated
argument matrices. Evaluation is the slot sum of :mod:`spectral_map`: one
option per distinct eigenvalue and order in each slot, the arguments
interleaved between the slot factors, evaluated in Jordan coordinates
(each argument enters once, as V_j^-1 A_j V_{j+1}). Per-slot mode
restrictions (P or N options only) give the nilpotent-pattern terms and
every sub-sum of the analysis layer's reports; ``eval_modes`` evaluates
any set of them from one walk, and every evaluator here is a case of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .spectral_map import eval_slot_sum


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class GmoiProblem:
    beta: object                 # MultiFunction, arity zeta+1
    params: tuple                # zeta+1 JordanDecompositions
    args: tuple                  # zeta Matrices

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
    def modes(self):
        return tuple("N" if b else "P" for b in self.bits)


def binary_selector(i, width):
    """Most-significant-bit-first binary digits of i as a 0/1 tuple."""
    if not 0 <= i < 2 ** width:
        raise EngineError(f"selector index {i} out of range for width {width}")
    return tuple((i >> (width - 1 - j)) & 1 for j in range(width))


def eval_modes(problem, keys, budget=None):
    """The integral restricted by each mode tuple of ``keys`` (one "P",
    "N" or "full" per parameter slot), all from one slot-sum walk:
    {key: Matrix}."""
    r = problem.zeta + 1
    keys = [tuple(k) for k in keys]
    if any(len(k) != r or not {*k} <= {"P", "N", "full"} for k in keys):
        raise EngineError('need one mode, "P", "N" or "full", per parameter '
                          'slot')
    return eval_slot_sum(problem.beta, problem.params,
                         interleave=list(problem.args), budget=budget,
                         keys=keys)


def eval_gmoi(problem, modes=None, budget=None):
    """Evaluate the integral; ``modes`` optionally restricts each
    parameter slot to "P", "N", or "full" (default)."""
    key = ("full",) * (problem.zeta + 1) if modes is None else tuple(modes)
    return eval_modes(problem, [key], budget=budget)[key]


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
    set, else P. One walk gives them all."""
    r = problem.zeta + 1
    patterns = [NilpotentPattern(i, r) for i in range(2 ** r)]
    terms = eval_modes(problem, [pat.modes for pat in patterns],
                       budget=budget)
    return [(pat, terms[pat.modes]) for pat in patterns]
