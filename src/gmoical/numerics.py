"""Scalar and matrix arithmetic in two modes: float (complex128) and
exact rational complex (Fraction pairs, ``QC``).

A matrix is small (dim <= 16), dense and immutable, with one interface in
both modes: it holds one read-only numpy array, ``complex128`` in float
mode and dtype ``object`` holding ``QC`` in exact mode, so its elementwise
operations are one array expression in either mode. Float ``mat_mul`` is
numpy's product and float ``inverse`` runs Gauss-Jordan elimination with
partial pivoting on the array. The exact kernels write a matrix as
(R + iI) / d, integer numerator rows over the least common denominator of
its entries: a product takes integer dot products and reduces each entry
once, and the inverse is fraction-free Gauss-Jordan elimination over the
Gaussian integers (``gauss_jordan``), which also gives the exact
decomposition its ranks and nullspaces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np


class NumericsError(ValueError):
    pass


class DimensionMismatchError(NumericsError):
    pass


class SingularMatrixError(NumericsError):
    """Raised when a matrix inverse does not exist (exact mode) or the
    elimination meets a negligible pivot (float mode).

    The ``condition`` attribute carries a rough conditioning indicator:
    max |entry| / |smallest pivot seen|, or ``math.inf``.
    """

    def __init__(self, msg, condition=math.inf):
        super().__init__(msg)
        self.condition = condition


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class QC:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QC):
            return other
        if isinstance(other, (int, Fraction)):
            return QC(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QC((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return QC(1) / self ** (-k)
        out = QC(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons / conversions ------------------------------------
    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return math.sqrt(float(self.re * self.re + self.im * self.im))

    def modulus_sq(self):
        return self.re * self.re + self.im * self.im

    def conjugate(self):
        return QC(self.re, -self.im)

    def to_complex(self):
        return complex(self.re, self.im)

    __complex__ = to_complex

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def scalar(value, exact=False):
    """Coerce ``value`` (number, complex, QC, or "p/q" string) into the
    scalar type of the requested mode."""
    if exact:
        if isinstance(value, QC):
            return value
        if isinstance(value, complex):
            return QC(Fraction(value.real), Fraction(value.imag))
        return QC(value)
    if isinstance(value, str):
        return complex(Fraction(value))
    return complex(value)


def scalar_key(z):
    """(re, im) of a complex, QC or real scalar: the order in which
    eigenvalues and divided-difference nodes are sorted."""
    if isinstance(z, complex):
        return (z.real, z.imag)
    if isinstance(z, QC):
        return (z.re, z.im)
    return (z, 0)


def scalar_json(z):
    """A scalar as its JSON [re, im] pair: exact parts as integers or
    "p/q" strings."""
    if isinstance(z, QC):
        return [_emit_part(z.re), _emit_part(z.im)]
    z = complex(z)
    return [z.real, z.imag]


def _emit_part(x):
    return str(x) if x.denominator != 1 else int(x)


def parse_entry(entry, exact):
    """Parse a JSON matrix entry ``[re, im]`` where each part is a number
    or a "p/q" string. NaN and infinite parts raise NumericsError."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise NumericsError(f"matrix entry must be a [re, im] pair, got {entry!r}")
    re, im = entry
    if any(isinstance(p, bool) for p in entry):
        raise NumericsError(f"matrix entry {entry!r} has a boolean part")
    if any(isinstance(p, float) and not math.isfinite(p) for p in entry):
        raise NumericsError(f"matrix entry {entry!r} is not finite")
    if exact:
        return QC(_as_fraction(re), _as_fraction(im))
    try:
        re = float(Fraction(re)) if isinstance(re, str) else float(re)
        im = float(Fraction(im)) if isinstance(im, str) else float(im)
    except OverflowError:
        raise NumericsError(
            f"matrix entry {entry!r} is too large for a float") from None
    return complex(re, im)


class Matrix:
    """Immutable dense square matrix over complex floats or exact rational
    complex scalars (uniform per matrix): one read-only (dim, dim) numpy
    array, ``complex128`` in float mode and dtype ``object`` holding
    ``QC`` in exact mode."""

    __slots__ = ("array", "exact")

    def __init__(self, rows, exact=None):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square")
        if exact is None:
            exact = n > 0 and isinstance(rows[0][0], QC)
        array = np.array(rows, dtype=object if exact else complex)
        self._set(_as_qc(array) if exact else array, exact)

    def _set(self, array, exact):
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def _of(cls, array, exact):
        """The matrix of an array this module built, as it is."""
        m = object.__new__(cls)
        m._set(array, exact)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def dim(self):
        return self.array.shape[0]

    @property
    def rows(self):
        """The entries as lists of Python scalars, row by row."""
        return self.array.tolist()

    # -- constructors --------------------------------------------------
    @classmethod
    def identity(cls, n, exact=False):
        a = _filled(n, exact)
        np.fill_diagonal(a, QC(1) if exact else 1)
        return cls._of(a, exact)

    @classmethod
    def zeros(cls, n, exact=False):
        return cls._of(_filled(n, exact), exact)

    @classmethod
    def from_json(cls, obj, exact=False):
        if not isinstance(obj, dict) or "entries" not in obj:
            raise NumericsError("matrix JSON must have 'dim' and 'entries'")
        entries = obj["entries"]
        dim = obj.get("dim", len(entries))
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise NumericsError(f"matrix JSON 'dim' must be a positive "
                                f"integer, got {dim!r}")
        if (len(entries) == dim * dim and dim > 1
                and all(len(e) == 2 and not isinstance(e[0], (list, tuple))
                        for e in entries)):
            # flat row-major list of [re, im] pairs
            entries = [entries[i * dim:(i + 1) * dim] for i in range(dim)]
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise DimensionMismatchError(
                f"declared dim {dim} does not match entries shape")
        return cls([[parse_entry(e, exact) for e in row] for row in entries],
                   exact=exact)

    def to_json(self):
        return {"dim": self.dim,
                "entries": [[scalar_json(e) for e in row]
                            for row in self.rows]}

    @classmethod
    def from_numpy(cls, arr):
        return cls(arr, exact=False)

    def to_numpy(self):
        """A new complex array of the entries; NumericsError when an exact
        entry is beyond the float range."""
        try:
            return self.array.astype(complex)
        except OverflowError:
            raise NumericsError(f"a dim-{self.dim} matrix has an entry "
                                f"beyond the float range") from None

    # -- arithmetic ----------------------------------------------------
    def _check(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.exact != other.exact:
            raise NumericsError("cannot mix exact and float matrices")

    def __add__(self, other):
        self._check(other)
        return Matrix._of(self.array + other.array, self.exact)

    def __sub__(self, other):
        self._check(other)
        return Matrix._of(self.array - other.array, self.exact)

    def __neg__(self):
        return Matrix._of(-self.array, self.exact)

    def scale(self, s):
        return Matrix._of(scalar(s, self.exact) * self.array, self.exact)

    def __matmul__(self, other):
        return mat_mul(self, other)

    def power(self, k):
        if k < 0:
            return inverse(self.power(-k))
        out = Matrix.identity(self.dim, self.exact)
        base = self
        while k:
            if k & 1:
                out = mat_mul(out, base)
            base = mat_mul(base, base)
            k >>= 1
        return out

    # -- predicates / norms -------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.exact == other.exact
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.exact, tuple(self.array.ravel().tolist())))

    def is_zero(self):
        return not np.count_nonzero(self.array)

    def frobenius_sq(self):
        """Sum of squared entry moduli; exact Fraction in exact mode."""
        if self.exact:
            return sum((e.modulus_sq() for e in self.array.flat),
                       Fraction(0))
        return float(np.vdot(self.array, self.array).real)

    def max_abs(self):
        return float(np.abs(self.to_numpy()).max(initial=0.0))

    def to_float(self):
        return Matrix._of(self.to_numpy(), False) if self.exact else self


def _filled(n, exact):
    """A writable n x n array of zeros of the mode."""
    return np.full((n, n), QC(0) if exact else 0j,
                   dtype=object if exact else complex)


# the exact constructor also takes ints, Fractions and "p/q" strings
_as_qc = np.frompyfunc(lambda e: e if isinstance(e, QC) else QC(e), 1, 1)


def mat_mul(a, b):
    a._check(b)
    if a.exact:
        return _exact_mat_mul(a, b)
    return Matrix._of(a.array @ b.array, False)


def _numerators(rows):
    """Rows of exact scalars as (R, I, d): integer rows R and I and the
    least common denominator d of every part, with rows = (R + iI) / d."""
    d = math.lcm(*(p.denominator for r in rows for e in r
                   for p in (e.re, e.im)))
    re = [[e.re.numerator * (d // e.re.denominator) for e in r]
          for r in rows]
    im = [[e.im.numerator * (d // e.im.denominator) for e in r]
          for r in rows]
    return re, im, d


def _exact_mat_mul(a, b):
    """The exact product over Gaussian integers: four integer dot
    products per entry and one reduction over d_a * d_b."""
    ar, ai, da = _numerators(a.rows)
    br, bi, db = _numerators(b.rows)
    den = da * db
    return Matrix([[QC(Fraction(u, den), Fraction(v, den))
                    for u, v in zip(x, y)]
                   for x, y in zip(*gauss_mat_mul(ar, ai, br, bi))],
                  exact=True)


def gauss_mat_mul(ar, ai, br, bi):
    """The product of the Gaussian-integer matrices ar + i ai and
    br + i bi, as its integer rows (re, im)."""
    cols = list(zip(zip(*br), zip(*bi)))
    re, im = [], []
    for x, y in zip(ar, ai):
        re.append([sum(map(mul, x, u)) - sum(map(mul, y, v))
                   for u, v in cols])
        im.append([sum(map(mul, x, v)) + sum(map(mul, y, u))
                   for u, v in cols])
    return re, im


def frobenius_norm(a):
    """The Frobenius norm as a float; NumericsError when its square, exact
    in exact mode, is beyond the float range."""
    try:
        return math.sqrt(float(a.frobenius_sq()))
    except OverflowError:
        raise NumericsError(
            f"the squared Frobenius norm of a dim-{a.dim} matrix is beyond "
            f"the float range") from None


def inverse(a):
    """Gauss-Jordan inverse. Exact mode eliminates fraction-free over the
    Gaussian integers; float mode uses partial pivoting on the augmented
    array [a | I], one rank-one update per column, and raises
    SingularMatrixError with a condition indicator when the pivot is
    negligible."""
    if a.exact:
        return _exact_inverse(a)
    n = a.dim
    aug = np.hstack([a.array, np.eye(n, dtype=complex)])
    scale_ref = a.max_abs() or 1.0
    for col in range(n):
        below = aug[col:, col]
        piv_row = col + int(np.argmax(below.real ** 2 + below.imag ** 2))
        piv = complex(aug[piv_row, col])
        piv_abs = math.sqrt(piv.real * piv.real + piv.imag * piv.imag)
        if piv_abs <= 1e-13 * scale_ref:
            cond = scale_ref / piv_abs if piv_abs else math.inf
            raise SingularMatrixError(
                f"matrix is numerically singular (pivot {piv_abs:.3e})",
                condition=cond)
        aug[[col, piv_row]] = aug[[piv_row, col]]
        aug[col] *= 1.0 / piv
        factors = aug[:, col].copy()
        factors[col] = 0
        aug -= np.outer(factors, aug[col])
    return Matrix._of(aug[:, n:].copy(), False)


def _exact_inverse(a):
    """The inverse by ``gauss_jordan`` on [M | I] for a = M / d: the left
    half ends as p I and the right half as p M^-1, for the last pivot p,
    so a^-1 = d (p M^-1) / p."""
    n = a.dim
    re, im, d = _numerators(a.rows)
    ar = [r + [int(i == j) for j in range(n)] for i, r in enumerate(re)]
    ai = [r + [0] * n for r in im]
    pivots, (pr, pi) = gauss_jordan(ar, ai, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular (exact)")
    norm = pr * pr + pi * pi
    return Matrix([[QC(Fraction(d * (u * pr + v * pi), norm),
                       Fraction(d * (v * pr - u * pi), norm))
                    for u, v in zip(xr[n:], xi[n:])]
                   for xr, xi in zip(ar, ai)], exact=True)


def gauss_jordan(ar, ai, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place, of
    the rows ar + i ai over the Gaussian integers, real and imaginary
    parts in separate integer rows. Columns 0..ncols-1 are eliminated in
    turn; a column with no nonzero entry below the pivot rows is skipped.
    Step k swaps the first row at or below row k with a nonzero entry in
    the column into row k and replaces each row i != k by
    (p_k row_i - m_ik row_k) / p_{k-1}, where p_k is the k-th pivot;
    every division is exact. Returns the pivot columns, the k-th one
    pivoting row k, and the last pivot p as a pair (re, im); every pivot
    entry ends equal to p, so the reduced row echelon form is the pivot
    rows over p."""
    m = len(ar)
    pivots = []
    pr, pi = 1, 0               # the previous pivot pr + i pi
    for c in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, m) if ar[r][c] or ai[r][c]), None)
        if piv is None:
            continue
        ar[k], ar[piv] = ar[piv], ar[k]
        ai[k], ai[piv] = ai[piv], ai[k]
        kr, ki = ar[k], ai[k]
        cr, ci = kr[c], ki[c]
        norm = pr * pr + pi * pi
        for i in range(m):
            if i == k:
                continue
            xr, xi = ar[i], ai[i]
            fr, fi = xr[c], xi[c]
            # (c row_i - f row_k) / p as (...) conj(p) / |p|^2, with the
            # pivot c = cr + i ci and f = fr + i fi
            tr = [cr * u - ci * v - fr * s + fi * t
                  for u, v, s, t in zip(xr, xi, kr, ki)]
            ti = [cr * v + ci * u - fr * t - fi * s
                  for u, v, s, t in zip(xr, xi, kr, ki)]
            ar[i] = [(u * pr + v * pi) // norm for u, v in zip(tr, ti)]
            ai[i] = [(v * pr - u * pi) // norm for u, v in zip(tr, ti)]
        pr, pi = cr, ci
        pivots.append(c)
    return pivots, (pr, pi)
