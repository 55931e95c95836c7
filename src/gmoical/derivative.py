"""Derivatives of matrix functions t -> f(X + tY) at t = 0, expressed as
integer-coefficient combinations of operator integrals and correction
terms, built by a term-rewriting recursion and evaluated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import StructureInstabilityError
from .engine import GmoiProblem, eval_gmoi
from .functions import FunctionError, lift_divided_difference
from .jordan import JordanDecomposition, decompose, from_structure
from .numerics import Matrix, frobenius_norm, inverse, mat_mul

# slot alphabet: the base matrix, its nilpotent part, and the perturbed
# ("tilde") versions of both
X = "X"
XN = "X_N"
XT = "X~"
XTN = "X~_N"

_TILDE = {X: XT, XN: XTN, XT: XT, XTN: XTN}
_MODE = {X: "full", XN: "N", XT: "full", XTN: "N"}

MAX_EXPANSION_ORDER = 8


class DerivativeError(ValueError):
    pass


@dataclass(frozen=True)
class ParameterPattern:
    """An ordered slot pattern over {X, X_N, X~, X~_N}."""
    slots: tuple

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) < 2:
            raise DerivativeError("pattern needs at least two slots")
        for s in self.slots:
            if s not in _MODE:
                raise DerivativeError(f"unknown slot letter {s!r}")

    def __len__(self):
        return len(self.slots)

    def positions(self):
        """1-based positions of each plain-X slot, in order."""
        return tuple(j + 1 for j, s in enumerate(self.slots) if s == X)


@dataclass(frozen=True)
class GmoiTerm:
    coeff: int
    pattern: ParameterPattern       # over {X, X_N} only


@dataclass(frozen=True)
class CrossTerm:
    coeff: int
    order: int                      # derivative order i of the correction
    pattern: ParameterPattern       # full alphabet; contains the (X~, X) pair
    pair_pos: int                   # 0-based position of the pair's X~


@dataclass
class DerivativeExpansion:
    order: int
    terms: list                     # GmoiTerm | CrossTerm


def _tilde(letters):
    return tuple(_TILDE[s] for s in letters)


def build_expansion(n):
    """The order-n expansion, built by differentiating term-by-term from
    the order-1 seed:

    - an all-nilpotent integral differentiates to zero;
    - a plain-X slot splits into a duplicated (X, X) term (+), a
      duplicated (X_N, X_N) term (-), and an order-1 correction whose
      slots keep their letters before the pair and are tilded after it;
    - a correction term differentiates by incrementing its order.
    """
    if n < 1:
        raise DerivativeError("derivative order must be >= 1")
    if n > MAX_EXPANSION_ORDER:
        raise DerivativeError(
            f"expansion order {n} exceeds the supported budget "
            f"{MAX_EXPANSION_ORDER}")
    terms = {("gmoi", (X, X)): 1}
    for _ in range(n - 1):
        nxt = {}

        def add(key, c):
            nxt[key] = nxt.get(key, 0) + c

        for key, c in terms.items():
            if key[0] == "gmoi":
                p = key[1]
                for j, letter in enumerate(p):
                    if letter != X:
                        continue
                    add(("gmoi", p[:j] + (X, X) + p[j + 1:]), c)
                    add(("gmoi", p[:j] + (XN, XN) + p[j + 1:]), -c)
                    cross = p[:j] + (XT, X) + _tilde(p[j + 1:])
                    add(("cross", cross, 1, j), -c)
            else:
                _, pat, order, pos = key
                add(("cross", pat, order + 1, pos), c)
        terms = {k: c for k, c in nxt.items() if c != 0}
    out = []
    for key in sorted(terms, key=repr):
        c = terms[key]
        if key[0] == "gmoi":
            out.append(GmoiTerm(c, ParameterPattern(key[1])))
        else:
            out.append(CrossTerm(c, key[2], ParameterPattern(key[1]), key[3]))
    return DerivativeExpansion(order=n, terms=out)


def gamma(rho):
    """Count of nilpotent-containing correction terms of slot length rho:
    sum over k >= 1 of (rho-k-1)!/(k!(rho-2k-1)!) * (rho-2k-1), the
    series truncated at the last nonnegative entry."""
    if rho < 4:
        raise DerivativeError("gamma is defined for rho >= 4")
    total = 0
    k = 1
    while rho - 2 * k - 1 >= 0:
        total += (math.factorial(rho - k - 1)
                  // (math.factorial(k) * math.factorial(rho - 2 * k - 1))
                  * (rho - 2 * k - 1))
        k += 1
    return total


# ---------------------------------------------------------------------------
# evaluation

def _as_decomposition(x, tol=1e-9):
    if isinstance(x, JordanDecomposition):
        return x
    return decompose(x, tol=tol)


def first_derivative(f, x, y, budget=None):
    """d f(X + tY)/dt at t=0: the order-1 operator integral with both
    parameter slots holding X and the single argument Y."""
    dec = _as_decomposition(x)
    lift = lift_divided_difference(f, 1)
    return eval_gmoi(GmoiProblem(lift, (dec, dec), (y,)), budget=budget)


def _dec_to_float(dec):
    if not dec.exact:
        return dec
    structure = [(b.eigenvalue.to_complex(), [b.order]) for b in dec.blocks]
    return from_structure(structure, dec.transform.to_float(), exact=False)


def _xbar(f, pattern, pair_pos, x_dec, xt_dec, y, t, budget=None):
    """The aggregate correction for the pair (X~, X) at pair_pos with the
    remaining slots fixed by their letters, computed from its defining
    rearrangement: big integral (full pair modes) minus the difference of
    the two small integrals minus the nilpotent-pair big integral."""
    letters = pattern.slots
    rho = len(letters)
    dec_of = {X: x_dec, XN: x_dec, XT: xt_dec, XTN: xt_dec}
    pre = letters[:pair_pos]
    post = letters[pair_pos + 2:]
    pre_modes = tuple(_MODE[s] for s in pre)
    post_modes = tuple(_MODE[s] for s in post)
    params_big = ([dec_of[s] for s in pre] + [xt_dec, x_dec]
                  + [dec_of[s] for s in post])
    args_big = [y] * len(pre) + [y.scale(t)] + [y] * len(post)
    beta_big = lift_divided_difference(f, rho - 1).tabulated()
    beta_small = lift_divided_difference(f, rho - 2).tabulated()
    prob_big = GmoiProblem(beta_big, params_big, args_big)
    t_full = eval_gmoi(prob_big, modes=pre_modes + ("full", "full")
                       + post_modes, budget=budget)
    t_nn = eval_gmoi(prob_big, modes=pre_modes + ("N", "N") + post_modes,
                     budget=budget)
    args_small = [y] * (rho - 2)
    small_modes = pre_modes + ("full",) + post_modes
    t_c = eval_gmoi(GmoiProblem(beta_small,
                                [dec_of[s] for s in pre] + [xt_dec]
                                + [dec_of[s] for s in post], args_small),
                    modes=small_modes, budget=budget)
    t_d = eval_gmoi(GmoiProblem(beta_small,
                                [dec_of[s] for s in pre] + [x_dec]
                                + [dec_of[s] for s in post], args_small),
                    modes=small_modes, budget=budget)
    return t_full - t_c + t_d - t_nn


def _fd_weights(offsets, n):
    """Finite-difference weights on the given unit offsets for the n-th
    derivative at 0 (nodes are offsets * step; divide by step**n)."""
    import numpy as np
    m = len(offsets)
    v = np.vander(np.array(offsets, dtype=float), m, increasing=True).T
    rhs = np.zeros(m)
    rhs[n] = math.factorial(n)
    return np.linalg.solve(v, rhs)


def nth_derivative(f, x, y, n, x_step=1e-3, budget=None, tol=1e-9):
    """d^n f(X + tY)/dt^n at t=0 by evaluating the order-n expansion.

    Integral terms use divided-difference lifts of f; correction terms are
    differentiated numerically (central stencil of width n-matching order,
    one level of Richardson extrapolation) on the exactly-assembled
    correction function of t, which needs the Jordan data of X + tY per
    stencil node. The family must keep X's Jordan structure near t=0.
    When X is diagonalizable that stability makes every correction vanish
    identically and the whole evaluation stays in X's scalar mode.
    """
    x_dec = _as_decomposition(x, tol=tol)
    expansion = build_expansion(n)
    diagonalizable = all(b.order == 1 for b in x_dec.blocks)
    if not diagonalizable:
        x_dec = _dec_to_float(x_dec)
        y = y.to_float()
    out = Matrix.zeros(x_dec.dim, x_dec.exact)
    lifts = {}

    def lift(k):
        if k not in lifts:
            lifts[k] = lift_divided_difference(f, k).tabulated()
        return lifts[k]

    for term in expansion.terms:
        if isinstance(term, GmoiTerm):
            p = term.pattern.slots
            modes = tuple(_MODE[s] for s in p)
            val = eval_gmoi(GmoiProblem(lift(len(p) - 1), (x_dec,) * len(p),
                                        (y,) * (len(p) - 1)),
                            modes=modes, budget=budget)
            out = out + val.scale(term.coeff)
        else:
            if diagonalizable:
                # structure-stable diagonalizable family: corrections are
                # identically zero
                continue
            out = out + _cross_derivative(f, term, x_dec, y, x_step,
                                          budget=budget, tol=tol)
    return out


def _cross_derivative(f, term, x_dec, y, x_step, budget=None, tol=1e-9):
    xmat = x_dec.reconstruct()
    base_sig = x_dec.signature()
    dec_cache = {}

    def dec_at(t):
        if t not in dec_cache:
            d = decompose(xmat + y.scale(t), tol=tol)
            if d.signature() != base_sig:
                raise StructureInstabilityError(
                    f"Jordan structure of X + tY changed at t={t}: "
                    f"{d.signature()} != {base_sig}")
            dec_cache[t] = d
        return dec_cache[t]

    def g(t):
        if t == 0:
            return Matrix.zeros(x_dec.dim, False)
        return _xbar(f, term.pattern, term.pair_pos, x_dec, dec_at(t), y, t,
                     budget=budget)

    i = term.order

    def stencil(h):
        acc = Matrix.zeros(x_dec.dim, False)
        for k in range(i + 1):
            off = i / 2.0 - k
            if off == 0:
                continue
            w = (-1) ** k * math.comb(i, k) / h ** i
            acc = acc + g(off * h).scale(w)
        return acc

    d1 = stencil(x_step)
    d2 = stencil(x_step / 2)
    richardson = (d2.scale(4) - d1).scale(1 / 3)
    return richardson.scale(term.coeff)


# ---------------------------------------------------------------------------
# oracles


def _poly_coeffs(f):
    if f.kind == "polynomial":
        return list(f.meta["coeffs"])
    if f.kind == "power" and f.meta["degree"] >= 0:
        return [0] * f.meta["degree"] + [1]
    raise DerivativeError(
        "expansion oracle needs a polynomial (or nonnegative power) symbol")


def expansion_oracle(f, x, y, n):
    """Exact n-th derivative of t -> f(X + tY) at t=0 for polynomial f,
    by the noncommutative expansion: n! times the sum, over every word in
    X and Y of each monomial length with exactly n letters Y, of the word
    evaluated at (X, Y). Exact in rational mode."""
    coeffs = _poly_coeffs(f)
    exact = x.exact
    # s[j] = sum of all words of the current length with j letters Y
    s = [Matrix.identity(x.dim, exact)] + [Matrix.zeros(x.dim, exact)
                                           for _ in range(n)]
    acc = Matrix.zeros(x.dim, exact)
    if n == 0:
        acc = acc + s[0].scale(coeffs[0]) if coeffs else acc
    for k in range(1, len(coeffs)):
        nxt = [mat_mul(s[0], x)]
        for j in range(1, n + 1):
            nxt.append(mat_mul(s[j], x) + mat_mul(s[j - 1], y))
        s = nxt
        if coeffs[k]:
            acc = acc + s[n].scale(coeffs[k])
    return acc.scale(math.factorial(n))


# stencil oracle

def _poly_matrix(coeffs, m):
    ident = Matrix.identity(m.dim, m.exact)
    acc = Matrix.zeros(m.dim, m.exact)
    for c in reversed(list(coeffs)):
        acc = mat_mul(acc, m) + ident.scale(c)
    return acc


def _exp_matrix(m, order=24):
    ident = Matrix.identity(m.dim, m.exact)
    acc = ident
    term = ident
    for k in range(1, order + 1):
        term = mat_mul(term, m).scale(1.0 / k)
        acc = acc + term
    return acc


def _apply_function(f, m, tol):
    if f.kind == "polynomial":
        return _poly_matrix(f.meta["coeffs"], m)
    if f.kind == "power" and f.meta["degree"] >= 0:
        return _poly_matrix([0] * f.meta["degree"] + [1], m)
    if f.kind == "exp":
        return _exp_matrix(m)
    if f.kind == "rational":
        return mat_mul(_poly_matrix(f.meta["num"], m),
                       inverse(_poly_matrix(f.meta["den"], m)))
    from .spectral_map import eval_univariate
    try:
        return eval_univariate(f, decompose(m, tol=tol))
    except Exception as e:
        raise StructureInstabilityError(
            f"could not evaluate f at a stencil node: {e}") from e


def fd_oracle(f, x, y, n, step=1e-3, stencil_width=None, tol=1e-9):
    """Plain n-th central finite difference of t -> f(X + tY) at t=0,
    independent of the expansion machinery. Entire functions are applied
    by matrix power series; anything else goes through a per-node Jordan
    decomposition."""
    if stencil_width is None:
        stencil_width = n + 1
    if stencil_width < n + 1:
        raise DerivativeError("stencil width must be at least n + 1")
    x = x.to_float()
    y = y.to_float()
    offsets = [k - (stencil_width - 1) / 2.0 for k in range(stencil_width)]
    weights = _fd_weights(offsets, n)
    acc = Matrix.zeros(x.dim, False)
    for off, w in zip(offsets, weights):
        val = _apply_function(f, x + y.scale(off * step), tol)
        acc = acc + val.scale(float(w) / step ** n)
    return acc
