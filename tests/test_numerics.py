"""Scalar and matrix kernel: exact rational-complex arithmetic, matrix
algebra, inversion, and JSON round trips."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmoical import (DimensionMismatchError, Matrix, NumericsError, QC,
                     SingularMatrixError, frobenius_norm, inverse, mat_mul)
from exact_kernel_reference import inverse_reference, mat_mul_reference


def qc(a, b=0):
    return QC(Fraction(a), Fraction(b))


class TestQC:
    def test_field_ops_exact(self):
        a = qc(Fraction(1, 3), 2)
        b = qc(-2, Fraction(1, 2))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * b == b * a
        assert a - a == qc(0)

    def test_complex_multiplication(self):
        i = qc(0, 1)
        assert i * i == qc(-1)
        assert (qc(1, 2) * qc(3, 4)) == qc(-5, 10)

    def test_conjugate_modulus(self):
        z = qc(3, 4)
        assert z.modulus_sq() == Fraction(25)
        assert z * z.conjugate() == qc(25)

    def test_to_complex(self):
        assert qc(Fraction(1, 2), 1).to_complex() == 0.5 + 1j

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qc(1) / qc(0)

    @given(st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_complex(self, a, b, c, d):
        exact = qc(a, b) * qc(c, d)
        approx = complex(a, b) * complex(c, d)
        assert exact.to_complex() == approx


class TestMatrix:
    def test_identity_and_zero(self):
        ident = Matrix.identity(3, True)
        z = Matrix.zeros(3, True)
        m = Matrix([[qc(1), qc(2), qc(0)],
                    [qc(0), qc(1), qc(5)],
                    [qc(7), qc(0), qc(2)]], exact=True)
        assert mat_mul(ident, m) == m
        assert mat_mul(m, ident) == m
        assert (m + z) == m
        assert (m - m).is_zero()

    def test_dimension_mismatch(self):
        a = Matrix.identity(2, False)
        b = Matrix.identity(3, False)
        with pytest.raises(DimensionMismatchError):
            mat_mul(a, b)

    def test_power(self):
        m = Matrix([[qc(0), qc(1)], [qc(0), qc(0)]], exact=True)
        assert m.power(2).is_zero()
        assert m.power(0) == Matrix.identity(2, True)

    def test_frobenius(self):
        m = Matrix([[complex(3), complex(0)], [complex(0), complex(4)]],
                   exact=False)
        assert math.isclose(frobenius_norm(m), 5.0)

    def test_exact_inverse_roundtrip(self):
        rng = random.Random(0)
        for _ in range(10):
            m = Matrix([[qc(rng.randint(-3, 3), rng.randint(-3, 3))
                         for _ in range(3)] for _ in range(3)], exact=True)
            try:
                inv = inverse(m)
            except SingularMatrixError:
                continue
            assert mat_mul(m, inv) == Matrix.identity(3, True)
            assert mat_mul(inv, m) == Matrix.identity(3, True)

    def test_singular_raises(self):
        m = Matrix([[qc(1), qc(2)], [qc(2), qc(4)]], exact=True)
        with pytest.raises(SingularMatrixError):
            inverse(m)

    def test_float_inverse_matches_numpy(self):
        rng = random.Random(1)
        m = Matrix([[complex(rng.uniform(-2, 2)) for _ in range(4)]
                    for _ in range(4)], exact=False)
        got = inverse(m).to_numpy()
        want = np.linalg.inv(m.to_numpy())
        assert np.allclose(got, want, atol=1e-10)

    def test_float_inverse_raises_on_numerically_singular(self):
        m = Matrix([[1, 1], [1, 1 + 1e-15]], exact=False)
        with pytest.raises(SingularMatrixError) as info:
            inverse(m)
        assert math.isfinite(info.value.condition)
        assert info.value.condition > 1e13

    def test_json_roundtrip_exact(self):
        m = Matrix([[qc(Fraction(1, 3), 2), qc(0)],
                    [qc(-1), qc(Fraction(5, 7))]], exact=True)
        again = Matrix.from_json(m.to_json(), exact=True)
        assert again == m

    def test_json_roundtrip_float(self):
        m = Matrix([[complex(1.5, -2.0), complex(0)],
                    [complex(3), complex(0, 0.25)]], exact=False)
        again = Matrix.from_json(m.to_json(), exact=False)
        assert (again - m).is_zero()

    def test_json_flat_row_major(self):
        obj = {"dim": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]}
        m = Matrix.from_json(obj, exact=False)
        assert m.to_numpy()[1][0] == 3

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite(self, part, exact):
        obj = {"dim": 1, "entries": [[[1, part]]]}
        with pytest.raises(NumericsError, match="not finite"):
            Matrix.from_json(obj, exact=exact)

    def test_json_rejects_float_overflow(self):
        obj = {"dim": 1, "entries": [[["1e999", 0]]]}
        with pytest.raises(NumericsError, match="too large"):
            Matrix.from_json(obj, exact=False)
        assert not Matrix.from_json(obj, exact=True).is_zero()

    @pytest.mark.parametrize("dim", ["2", 0, -2, 2.0, None])
    def test_json_rejects_bad_dim(self, dim):
        obj = {"dim": dim, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        with pytest.raises(NumericsError, match="'dim' must be a positive"):
            Matrix.from_json(obj, exact=False)
        with pytest.raises(NumericsError, match="'dim' must be a positive"):
            Matrix.from_json({"entries": []}, exact=True)

    def test_to_float(self):
        m = Matrix([[qc(Fraction(1, 2)), qc(0)], [qc(0), qc(2)]], exact=True)
        f = m.to_float()
        assert not f.exact
        assert f.to_numpy()[0][0] == 0.5


_part = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
_entry = st.one_of(
    st.just(qc(0)),
    _part.map(qc),
    _part.map(lambda y: qc(0, y)),
    st.builds(qc, _part, _part))


def _square(n):
    return st.lists(st.lists(_entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
                        lambda rows: Matrix(rows, exact=True))


_pairs = st.integers(1, 6).flatmap(lambda n: st.tuples(_square(n),
                                                       _square(n)))


class TestExactKernels:
    """The Gaussian-integer kernels against the per-entry QC reference."""

    @given(_pairs)
    @settings(max_examples=40, deadline=None)
    def test_product_matches_reference(self, ab):
        a, b = ab
        assert mat_mul(a, b).rows == mat_mul_reference(a, b).rows

    @given(st.integers(1, 6).flatmap(_square))
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_reference(self, a):
        try:
            want = inverse_reference(a)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError,
                               match=r"^matrix is singular \(exact\)$"):
                inverse(a)
            return
        got = inverse(a)
        assert got.rows == want.rows
        assert mat_mul(got, a) == Matrix.identity(a.dim, True)

    @given(st.integers(2, 6).flatmap(
        lambda n: st.tuples(_square(n), st.lists(_entry, min_size=n - 1,
                                                 max_size=n - 1))))
    @settings(max_examples=30, deadline=None)
    def test_rank_deficient_raises(self, case):
        # the last row is a combination of the others
        a, coeffs = case
        rows = [list(r) for r in a.rows[:-1]]
        last = [sum((c * r[j] for c, r in zip(coeffs, rows)), qc(0))
                for j in range(a.dim)]
        m = Matrix(rows + [last], exact=True)
        for inv in (inverse, inverse_reference):
            with pytest.raises(SingularMatrixError,
                               match=r"^matrix is singular \(exact\)$"):
                inv(m)

    def test_real_gaussian_integer_inverse(self):
        m = Matrix([[qc(2), qc(1)], [qc(1), qc(1)]], exact=True)
        assert inverse(m) == Matrix([[qc(1), qc(-1)], [qc(-1), qc(2)]],
                                    exact=True)
        assert inverse(Matrix([[qc(0, 2)]], exact=True)) == \
            Matrix([[qc(0, Fraction(-1, 2))]], exact=True)

    def test_dim_16_product(self):
        rng = random.Random(23)

        def part():
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

        a, b = (Matrix([[qc(part(), part() if rng.random() < 0.5 else 0)
                         for _ in range(16)] for _ in range(16)], exact=True)
                for _ in range(2))
        assert mat_mul(a, b).rows == mat_mul_reference(a, b).rows


def _gaussian_pair(rng, n, span):
    """A Gaussian-integer matrix with parts in [-span, span], float and
    exact."""
    parts = [[(rng.randint(-span, span), rng.randint(-span, span))
              for _ in range(n)] for _ in range(n)]
    return (Matrix([[complex(a, b) for a, b in r] for r in parts],
                   exact=False),
            Matrix([[qc(a, b) for a, b in r] for r in parts], exact=True))


class TestFloatKernels:
    """The float kernels against the exact ones, on inputs where the
    answer does not depend on the order of the float sums."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_product_of_gaussian_integers_is_exact(self, n):
        # parts up to 8: every partial sum is an integer far below 2**53
        rng = random.Random(100 + n)
        for _ in range(5):
            (af, ae), (bf, be) = (_gaussian_pair(rng, n, 8) for _ in range(2))
            got = mat_mul(af, bf)
            assert not got.exact
            assert got == mat_mul(ae, be).to_float()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_inverse_matches_exact(self, n):
        rng = random.Random(200 + n)
        checked = 0
        while checked < 4:
            af, ae = _gaussian_pair(rng, n, 5)
            if np.linalg.cond(af.to_numpy()) > 100:
                continue
            want = inverse(ae).to_float()
            err = frobenius_norm(inverse(af) - want) / frobenius_norm(want)
            assert err <= 1e-12
            checked += 1
