"""Derivatives of matrix functions t -> f(X + tY) at t = 0.

``nth_derivative`` evaluates the order-n derivative as one operator
integral, n! T^{X,...,X}_{f^[n]}(Y, ..., Y), for every X. The order has no
cap of its own: the term budget bounds how wide the slot sum is, and
``spectral_map.eval_slot_sum`` how many slots it takes. ``contour_oracle``
checks the result in float for every univariate symbol; it shares no code
with the engine.
"""

from __future__ import annotations

import math

from .engine import GmoiProblem, eval_gmoi
from .functions import lift_divided_difference
from .jordan import JordanDecomposition, decompose
from .numerics import Matrix, scalar


class DerivativeError(ValueError):
    pass


def nth_derivative(f, x, y, n, budget=None, tol=1e-9):
    """d^n f(X + tY)/dt^n at t=0, for any X, Jordan or not: n! times the
    operator integral T^{X,...,X}_{f^[n]}(Y, ..., Y) with n + 1 parameter
    slots holding X and the order-n divided-difference lift of f
    (Mathias 1996; Higham, Functions of Matrices, 2008, section 3.2).
    Exact input gives an exact result. ``x`` is a matrix or its
    JordanDecomposition; X + tY is never decomposed.
    """
    if n < 1:
        raise DerivativeError("derivative order must be >= 1")
    if not isinstance(x, JordanDecomposition):
        x = decompose(x, tol=tol)
    val = eval_gmoi(GmoiProblem(lift_divided_difference(f, n),
                                (x,) * (n + 1), (y,) * n), budget=budget)
    # adding to zeros turns the -0.0 entries of val into 0.0
    return Matrix.zeros(x.dim, x.exact) + val.scale(math.factorial(n))


# contour oracle

_MAX_NODES = 1 << 14


def contour_oracle(f, x, y, n):
    """d^n f(X + tY)/dt^n at t=0, in float, as n! times the resolvent
    integral (2 pi i)^-1 of f(w) R(w) (Y R(w))^n dw, R(w) = (wI - X)^-1
    (Higham, Functions of Matrices, 2008, section 3.2), by the trapezoid
    rule on circles (Trefethen and Weideman, SIAM Review 2014). It needs
    no Jordan data and shares no code with the operator-integral engine.

    When no pole of f lies in the disc about X's mean eigenvalue that
    holds the spectrum, the contour is one circle about that mean,
    strictly between the spectrum and the nearest pole. Of a ladder of
    such radii it takes the one whose sum has the smallest terms, which
    scale its rounding error. Otherwise the eigenvalues are split into
    clusters (single linkage, cutting the longest edge) until each
    cluster's disc is free of poles and apart from the other discs, and
    the contour is one circle per cluster, halfway into the room around
    its disc. The node count starts at 64 and doubles until the change is
    at most 1e-13 of the terms' size, or no longer shrinks;
    DerivativeError past 2**14 nodes or for a pole on an eigenvalue."""
    import numpy as np
    if f.arity != 1:
        raise DerivativeError("contour oracle needs a univariate symbol")
    # an order-0 lift is its base function, poles included
    while f.kind == "dd-lift":
        f = f.meta["base"]
    a, b = x.to_numpy(), y.to_numpy()
    # a negative power has a pole at 0, a rational one at each root of its
    # denominator; the other kinds are entire
    poles = [0j] if f.kind == "power" and f.meta["degree"] < 0 else []
    if f.kind == "rational":
        poles = np.roots([complex(scalar(c, False))
                          for c in reversed(f.meta["den"])])

    def disc(points):
        """Centre, spread, nearest pole and the room between them."""
        centre = complex(points.mean())
        spread = float(np.abs(points - centre).max())
        pole = min(poles, key=lambda p: abs(p - centre), default=None)
        room = math.inf if pole is None else abs(pole - centre) - spread
        return centre, spread, pole, room

    def apart(d, e):
        return abs(d[0] - e[0]) - d[1] - e[1]

    groups = [np.linalg.eigvals(a)]
    discs = [disc(groups[0])]
    while True:
        crowded = [k for k, d in enumerate(discs) if d[3] <= 0]
        crowded += [max((k, h), key=lambda i: discs[i][1])
                     for k in range(len(discs)) for h in range(k)
                     if apart(discs[k], discs[h]) <= 0]
        if not crowded:
            break
        k = crowded[0]
        centre, spread, pole, _ = discs[k]
        if spread == 0:
            raise DerivativeError(
                f"pole {pole} of f lies on the eigenvalue {centre} of X")
        groups[k:k + 1] = _split(groups[k])
        discs = [disc(g) for g in groups]

    def trapezoid(circles, nodes):
        """The sum's value and the total Frobenius norm of its terms."""
        u = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        parts = []
        for centre, radius in circles:
            w = centre + radius * u
            res = np.linalg.inv(w[:, None, None] * np.eye(len(a)) - a)
            prod = res
            for _ in range(n):
                prod = prod @ b @ res
            weights = (np.array([f.eval(complex(z)) for z in w])
                       * radius * u / nodes)
            terms = weights[:, None, None] * prod
            parts.append((terms.sum(axis=0),
                          float(np.linalg.norm(terms, axis=(1, 2)).sum())))
        return (sum((p[0] for p in parts[1:]), parts[0][0]),
                sum(p[1] for p in parts))

    if len(discs) == 1:
        centre, spread, _, gap = discs[0]
        margins = [max(1.0, spread) * 2.0 ** j for j in range(-2, 5)]
        radii = ([spread + m for m in margins if 2 * m < gap]
                 or [spread + gap / 2])
        value, _, circles = min(
            (trapezoid([(centre, r)], 64) + ([(centre, r)],) for r in radii),
            key=lambda t: t[1])
    else:
        circles = []
        for d in discs:
            room = min([d[3]] + [apart(d, e) / 2 for e in discs if e is not d])
            circles.append((d[0], d[1] + room / 2))
        value, _ = trapezoid(circles, 64)
    nodes = 64
    last = math.inf
    while nodes < _MAX_NODES:
        nodes *= 2
        new, size = trapezoid(circles, nodes)
        change = float(np.linalg.norm(new - value))
        value = new
        if change <= 1e-13 * size or change >= last:
            return Matrix._of(value * math.factorial(n), False)
        last = change
    raise DerivativeError(
        f"contour sum did not settle within {_MAX_NODES} nodes")


def _split(points):
    """``points`` in two clusters: the parts of their minimum spanning
    tree without its longest edge (Kruskal, stopped at two parts)."""
    label = list(range(len(points)))
    edges = sorted((abs(points[i] - points[j]), i, j)
                   for i in range(len(points)) for j in range(i))
    parts = len(points)
    for _, i, j in edges:
        if parts == 2:
            break
        if label[i] != label[j]:
            old = label[i]
            label = [label[j] if lab == old else lab for lab in label]
            parts -= 1
    first = [i for i, lab in enumerate(label) if lab == label[0]]
    rest = [i for i, lab in enumerate(label) if lab != label[0]]
    return [points[first], points[rest]]
