"""Reference derivative: the paper's expansion, built as data and
evaluated term by term, and the noncommutative polynomial oracle.

``build_expansion`` writes d^n f(X + tY)/dt^n at t=0 as integer
combinations of nilpotent-pattern integrals over X and correction terms,
by a term-rewriting recursion, and ``gamma`` counts its nilpotent
correction terms. ``expansion_derivative`` evaluates it. Each correction
is a function of t assembled from the Jordan data of X + tY,
differentiated numerically: a central stencil of the term's order with
one level of Richardson extrapolation. The family must keep X's Jordan
structure near t=0, else ``StructureInstabilityError``. The library
computes the same derivative as one operator integral; the tests compare
the two on structure-stable families.

``expansion_oracle`` is the exact derivative of a polynomial f: the sum of
the words in X and Y of each monomial. It shares no code with the engine.
"""

import math
from dataclasses import dataclass

from gmoical import (DerivativeError, GmoiProblem, JordanDecomposition,
                     Matrix, decompose, eval_gmoi, from_structure,
                     lift_divided_difference, mat_mul)
from gmoical.analysis import StructureInstabilityError

# slot alphabet: the base matrix, its nilpotent part, and the perturbed
# ("tilde") versions of both
X = "X"
XN = "X_N"
XT = "X~"
XTN = "X~_N"

_TILDE = {X: XT, XN: XTN, XT: XT, XTN: XTN}
_MODE = {X: "full", XN: "N", XT: "full", XTN: "N"}

MAX_EXPANSION_ORDER = 8


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


def _check_order(n):
    if n < 1:
        raise DerivativeError("derivative order must be >= 1")
    if n > MAX_EXPANSION_ORDER:
        raise DerivativeError(
            f"expansion order {n} exceeds the supported budget "
            f"{MAX_EXPANSION_ORDER}")


def build_expansion(n):
    """The order-n expansion, built by differentiating term-by-term from
    the order-1 seed:

    - an all-nilpotent integral differentiates to zero;
    - a plain-X slot splits into a duplicated (X, X) term (+), a
      duplicated (X_N, X_N) term (-), and an order-1 correction whose
      slots keep their letters before the pair and are tilded after it;
    - a correction term differentiates by incrementing its order.
    """
    _check_order(n)
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
