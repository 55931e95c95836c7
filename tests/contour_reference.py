"""Reference operator integrals by contour integration: numpy only, never
gmoical, with every symbol evaluated from its JSON description.

For a symbol beta analytic near the spectra of X_1, ..., X_r, with
R_j(z) = (zI - X_j)^-1,

    T(Y_1, ..., Y_{r-1}) = (2 pi i)^-r  oint ... oint
        beta(z_1, ..., z_r) R_1(z_1) Y_1 R_2(z_2) ... R_r(z_r) dz_1 ... dz_r,

one circle per variable around its parameter's spectrum. The residue at
each eigenvalue is the operator integral's spectral sum, so the formula
needs the matrices and no Jordan data. For a divided-difference lift
f^[r-1] the r circles collapse to one around every spectrum:
(2 pi i)^-1 oint f(w) R_1(w) Y_1 ... R_r(w) dw (Kato 1966; Higham,
Functions of Matrices, 2008, section 3.2), and r = 1 gives f(X). Each
integral is a trapezoid sum (Trefethen and Weideman, SIAM Review 2014)
whose node count doubles until two sums agree.
"""

import math
from fractions import Fraction

import numpy as np


def _scalar(value):
    """A JSON scalar: a number, a "p/q" string or an [re, im] pair."""
    if isinstance(value, (list, tuple)):
        return _scalar(value[0]) + 1j * _scalar(value[1])
    if isinstance(value, str):
        return complex(float(Fraction(value)))
    return complex(value)


def _coeffs(values):
    return np.array([_scalar(c) for c in values])


def univariate(obj):
    """(f, poles): f maps a numpy array of points to its values."""
    kind = obj["kind"]
    if kind == "exp":
        return np.exp, []
    if kind == "constant":
        value = _scalar(obj.get("value", 1))
        return (lambda z: np.full(np.shape(z), value)), []
    if kind == "polynomial":
        c = _coeffs(obj["coeffs"])[::-1]
        return (lambda z: np.polyval(c, z)), []
    if kind == "rational":
        num = _coeffs(obj["num"])[::-1]
        den = _coeffs(obj["den"])[::-1]
        return (lambda z: np.polyval(num, z) / np.polyval(den, z),
                list(np.roots(den)))
    if kind == "power":
        d = obj["degree"]
        return (lambda z: np.asarray(z, dtype=complex) ** d,
                [0j] if d < 0 else [])
    raise ValueError(f"not a univariate kind: {kind!r}")


def multivariate(obj):
    """beta of a "polynomial-multi" symbol, on broadcast numpy arrays."""
    terms = [(_scalar(t["coeff"]), t["exponents"]) for t in obj["terms"]]

    def beta(*z):
        total = 0j
        for c, exps in terms:
            term = c
            for zj, e in zip(z, exps):
                term = term * zj ** e
            total = total + term
        return total

    return beta


def circle(points, poles=()):
    """(centre, radius) of a circle around ``points`` that leaves every
    pole outside."""
    points = np.asarray(points, dtype=complex)
    centre = points.mean()
    spread = float(np.abs(points - centre).max())
    radius = spread + 1.0
    for p in poles:
        gap = abs(p - centre)
        if gap <= spread:
            raise ValueError(f"pole {p} lies inside the spectrum's circle")
        radius = min(radius, (spread + gap) / 2)
    return centre, radius


def _nodes(centre, radius, n):
    """Trapezoid nodes w_k on the circle and the weights of dw / (2 pi i)."""
    u = np.exp(2j * np.pi * np.arange(n) / n)
    return centre + radius * u, radius * u / n


def _resolvents(x, w):
    return np.linalg.inv(w[:, None, None] * np.eye(len(x)) - x)


def converged(trapezoid, start, cap):
    """trapezoid(n) -> (sum, total norm of its terms): the sum at the
    first doubling of n that changes it by at most 1e-14 of that norm."""
    n = start
    value, _ = trapezoid(n)
    while n < cap:
        n *= 2
        new, size = trapezoid(n)
        if np.linalg.norm(new - value) <= 1e-14 * size:
            return new
        value = new
    raise ArithmeticError(f"trapezoid sums still differ at {cap} nodes")


def lift_integral(f_obj, params, args):
    """T^{X_1..X_r}_{f^[r-1]}(Y_1, ..., Y_{r-1}) on one circle; f(X) for
    one parameter and no argument."""
    f, poles = univariate(f_obj)
    centre, radius = circle(
        np.concatenate([np.linalg.eigvals(x) for x in params]), poles)

    def trapezoid(n):
        w, weight = _nodes(centre, radius, n)
        prod = _resolvents(params[0], w)
        for y, x in zip(args, params[1:]):
            prod = prod @ y @ _resolvents(x, w)
        terms = (f(w) * weight)[:, None, None] * prod
        return terms.sum(axis=0), np.linalg.norm(terms, axis=(1, 2)).sum()

    return converged(trapezoid, 64, 4096)


def grid_integral(beta, params, args):
    """T^{X_1..X_r}_beta(Y_1, ..., Y_{r-1}) with one circle per parameter
    and beta evaluated on the grid of their nodes."""
    circles = [circle(np.linalg.eigvals(x)) for x in params]

    def trapezoid(n):
        points, factors, size = [], [], 1.0
        for j, (x, (centre, radius)) in enumerate(zip(params, circles)):
            w, weight = _nodes(centre, radius, n)
            shape = [1] * len(params)
            shape[j] = n
            points.append(w.reshape(shape))
            factor = weight[:, None, None] * _resolvents(x, w)
            if j < len(args):
                factor = factor @ args[j]
            factors.append(factor)
            size = size * np.linalg.norm(factor, axis=(1, 2)).reshape(shape)
        grid = np.broadcast_to(beta(*points), (n,) * len(params))
        acc = np.tensordot(grid, factors[0], axes=([0], [0]))
        for factor in factors[1:]:
            acc = np.einsum("a...ij,ajk->...ik", acc, factor)
        return acc, (np.abs(grid) * size).sum()

    return converged(trapezoid, 16, 128)


def integral(obj, params, args):
    """The operator integral of the symbol described by ``obj`` with
    parameter matrices ``params`` and arguments ``args`` (numpy arrays).
    A "product-moi" symbol beta(z_1, z_3, ...) z_2 z_4 ... takes its
    arguments as the parameters of the linear slots: each linear circle
    gives (2 pi i)^-1 oint z R(z) dz = A, then beta's integral runs with
    those."""
    kind = obj["kind"]
    if kind == "dd-lift":
        if obj["order"] != len(args):
            raise ValueError("lift order must equal the number of arguments")
        return lift_integral(obj["base"], params, args)
    if kind == "polynomial-multi":
        return grid_integral(multivariate(obj), params, args)
    if kind == "product-moi":
        linear = {"kind": "polynomial", "coeffs": [0, 1]}
        values = [lift_integral(linear, [a], []) for a in args]
        return integral(obj["beta"], params, values)
    if args:
        raise ValueError(f"{kind} takes no arguments")
    return lift_integral(obj, params, [])


def lift_partial(f_obj, orders, point):
    """The partial of orders q_j of f^[r-1] at (a_1, ..., a_r): prod q_j!
    times the confluent divided difference with a_j repeated q_j + 1
    times, (2 pi i)^-1 oint f(w) / prod (w - a_j)^(q_j + 1) dw."""
    f, poles = univariate(f_obj)
    point = np.asarray(point, dtype=complex)
    centre, radius = circle(point, poles)

    def trapezoid(n):
        w, weight = _nodes(centre, radius, n)
        terms = f(w) * weight
        for q, a in zip(orders, point):
            terms = terms / (w - a) ** (q + 1)
        return terms.sum(), np.abs(terms).sum()

    scale = math.prod(math.factorial(q) for q in orders)
    return scale * converged(trapezoid, 64, 4096)


def cauchy_partial(beta, orders, point, radius=0.5):
    """The mixed partial of beta at ``point`` by Cauchy's formula, one
    circle of ``radius`` per variable: prod q_j! (2 pi i)^-r oint ...
    beta(z) / prod (z_j - a_j)^(q_j + 1) dz."""
    r = len(point)

    def trapezoid(n):
        points, factor = [], 1.0
        for j, (q, a) in enumerate(zip(orders, point)):
            w, weight = _nodes(a, radius, n)
            shape = [1] * r
            shape[j] = n
            points.append(w.reshape(shape))
            factor = factor * (weight / (w - a) ** (q + 1)).reshape(shape)
        terms = beta(*points) * factor
        return terms.sum(), np.abs(terms).sum()

    scale = math.prod(math.factorial(q) for q in orders)
    return scale * converged(trapezoid, 16, 256)
