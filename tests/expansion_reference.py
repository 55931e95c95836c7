"""Reference derivative: the paper's expansion, evaluated term by term.

``build_expansion`` writes d^n f(X + tY)/dt^n at t=0 as integer
combinations of nilpotent-pattern integrals over X and correction terms.
Each correction is a function of t assembled from the Jordan data of
X + tY, differentiated numerically: a central stencil of the term's order
with one level of Richardson extrapolation. The family must keep X's
Jordan structure near t=0, else ``StructureInstabilityError``. The library
computes the same derivative as one operator integral; the tests compare
the two on structure-stable families.
"""

import math

from gmoical import (GmoiProblem, GmoiTerm, JordanDecomposition, Matrix,
                     build_expansion, decompose, eval_gmoi, from_structure,
                     lift_divided_difference)
from gmoical.analysis import StructureInstabilityError
from gmoical.derivative import _MODE, X, XN, XT, XTN


def _as_decomposition(x, tol=1e-9):
    if isinstance(x, JordanDecomposition):
        return x
    return decompose(x, tol=tol)


def _dec_to_float(dec):
    if not dec.exact:
        return dec
    structure = [(b.eigenvalue.to_complex(), [b.order]) for b in dec.blocks]
    return from_structure(structure, dec.transform.to_float())


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


def expansion_derivative(f, x, y, n, x_step=1e-3, budget=None, tol=1e-9):
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
