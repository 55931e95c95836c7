"""Independent oracles for the benchmark's checks.

Nothing here imports gmoical. Matrices arrive as the JSON objects that
``Matrix.to_json`` emits, ``{"dim": n, "entries": [[[re, im], ...], ...]}``,
whose parts are floats in float mode and ints or "p/q" strings in exact
mode.

Every oracle rests on the block-bidiagonal identity (Mathias 1996;
Higham, *Functions of Matrices*, 2008, section 3.2): for a polynomial f,
the top-right block of

    f([[X0, Y1,   ],
       [    X1, Y2],
       [        X2]])

is the operator integral T^{X0,X1,X2}_{f^[2]}(Y1, Y2) whose symbol is the
divided-difference lift of f, and likewise for any number of slots. With
every X_j = X and every Y_j = Y, k! times that block is the k-th
derivative of f(X + tY) at t = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# float

def np_matrix(obj):
    """A complex numpy array from a float-mode matrix JSON object."""
    return np.array([[complex(float(re), float(im)) for re, im in row]
                     for row in obj["entries"]], dtype=complex)


def np_integral(coeffs, params, args):
    """Top-right block of the polynomial ``coeffs`` (lowest degree first)
    applied to the block-bidiagonal matrix with ``params`` on the diagonal
    and ``args`` above it."""
    k = len(params)
    n = params[0].shape[0]
    m = np.zeros((k * n, k * n), dtype=complex)
    for i, x in enumerate(params):
        m[i * n:(i + 1) * n, i * n:(i + 1) * n] = x
    for i, y in enumerate(args):
        m[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = y
    acc = np.zeros_like(m)
    ident = np.eye(k * n)
    for c in reversed(coeffs):
        acc = acc @ m + c * ident
    return acc[:n, (k - 1) * n:]


def np_derivative(coeffs, x, y, order):
    """d^order/dt^order of poly(X + tY) at t = 0."""
    return math.factorial(order) * np_integral(coeffs, [x] * (order + 1),
                                               [y] * order)


def rel_err(got, want):
    """Relative Frobenius error; the absolute error when ``want`` is 0."""
    scale = float(np.linalg.norm(want))
    diff = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    return diff / scale if scale else diff


# ---------------------------------------------------------------------------
# exact: Gaussian rationals as (Fraction re, Fraction im) pairs

def _fraction(part):
    return Fraction(part) if isinstance(part, str) else Fraction(int(part))


def exact_matrix(obj):
    """Rows of (re, im) Fraction pairs from an exact-mode matrix JSON
    object."""
    return [[(_fraction(re), _fraction(im)) for re, im in row]
            for row in obj["entries"]]


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols]
            for row in a]


def _int_add(a, b, sign=1):
    return [[p + sign * q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)]


def exact_integral(coeffs, params, args):
    """The exact counterpart of :func:`np_integral`.

    ``coeffs`` are Fractions; ``params`` and ``args`` are matrices from
    :func:`exact_matrix`. The block matrix is scaled to Gaussian integers
    M = N / d, so the powers N^k are exact integer products and only the
    final block is divided: f(M) = sum_k c_k N^k / d^k.
    """
    k = len(params)
    n = len(params[0])
    size = k * n
    zero = (Fraction(0), Fraction(0))
    big = [[zero] * size for _ in range(size)]
    for i, x in enumerate(params):
        for r in range(n):
            big[i * n + r][i * n:(i + 1) * n] = x[r]
    for i, y in enumerate(args):
        for r in range(n):
            big[i * n + r][(i + 1) * n:(i + 2) * n] = y[r]
    d = 1
    for row in big:
        for re, im in row:
            d = math.lcm(d, re.denominator, im.denominator)
    n_re = [[int(re * d) for re, _ in row] for row in big]
    n_im = [[int(im * d) for _, im in row] for row in big]
    p_re = [[int(i == j) for j in range(size)] for i in range(size)]
    p_im = [[0] * size for _ in range(size)]
    out = [[zero] * n for _ in range(n)]
    scale = Fraction(1)
    for c in coeffs:
        c = Fraction(c)
        if c:
            for r in range(n):
                for s in range(n):
                    re, im = out[r][s]
                    col = (k - 1) * n + s
                    out[r][s] = (re + c * scale * p_re[r][col],
                                 im + c * scale * p_im[r][col])
        p_re, p_im = (_int_add(_int_mul(p_re, n_re), _int_mul(p_im, n_im),
                               -1),
                      _int_add(_int_mul(p_re, n_im), _int_mul(p_im, n_re)))
        scale /= d
    return out


def exact_frobenius_sq(a):
    return sum(re * re + im * im for row in a for re, im in row)


def exact_add(a, b):
    return [[(p[0] + q[0], p[1] + q[1]) for p, q in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def exact_rel_err(got, want):
    """Relative Frobenius error of exact matrices, as a float; 0 only when
    they are equal."""
    diff = [[(p[0] - q[0], p[1] - q[1]) for p, q in zip(rg, rw)]
            for rg, rw in zip(got, want)]
    num = exact_frobenius_sq(diff)
    den = exact_frobenius_sq(want)
    return math.sqrt(num / den) if den else math.sqrt(num)
