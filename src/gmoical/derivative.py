"""Derivatives of matrix functions t -> f(X + tY) at t = 0.

``nth_derivative`` evaluates the order-n derivative as one operator
integral, n! T^{X,...,X}_{f^[n]}(Y, ..., Y), for every X. The paper's
expansion of the same derivative into integer-coefficient combinations of
nilpotent-pattern integrals and correction terms is kept as data:
``build_expansion`` builds it by a term-rewriting recursion and ``gamma``
counts its nilpotent correction terms. Two oracles that share no code with
the engine check the results: the noncommutative polynomial expansion and
a plain finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import StructureInstabilityError
from .engine import GmoiProblem, eval_gmoi
from .functions import lift_divided_difference
from .jordan import JordanDecomposition, decompose
from .numerics import Matrix, inverse, mat_mul

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


# ---------------------------------------------------------------------------
# evaluation

def nth_derivative(f, x, y, n, budget=None, tol=1e-9):
    """d^n f(X + tY)/dt^n at t=0, for any X, Jordan or not: n! times the
    operator integral T^{X,...,X}_{f^[n]}(Y, ..., Y) with n + 1 parameter
    slots holding X and the order-n divided-difference lift of f
    (Mathias 1996; Higham, Functions of Matrices, 2008, section 3.2).
    Exact input gives an exact result. ``x`` is a matrix or its
    JordanDecomposition; X + tY is never decomposed.
    """
    _check_order(n)
    if not isinstance(x, JordanDecomposition):
        x = decompose(x, tol=tol)
    val = eval_gmoi(GmoiProblem(lift_divided_difference(f, n),
                                (x,) * (n + 1), (y,) * n), budget=budget)
    # adding to zeros turns the -0.0 entries of val into 0.0
    return Matrix.zeros(x.dim, x.exact) + val.scale(math.factorial(n))


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


def _fd_weights(offsets, n):
    """Finite-difference weights on the given unit offsets for the n-th
    derivative at 0 (nodes are offsets * step; divide by step**n)."""
    import numpy as np
    m = len(offsets)
    v = np.vander(np.array(offsets, dtype=float), m, increasing=True).T
    rhs = np.zeros(m)
    rhs[n] = math.factorial(n)
    return np.linalg.solve(v, rhs)


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
