"""Jordan decomposition: prescribed and automatic modes, block data
invariants, and the semisimple/nilpotent split."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gmoical.jordan
from gmoical import (QC, DecompositionError, Matrix, decompose,
                     frobenius_norm, from_structure, gen_fixture, mat_mul)
from conftest import draw_fixture


def _check_invariants(dec, tol=1e-9):
    ident = Matrix.identity(dec.dim, dec.exact)
    total = Matrix.zeros(dec.dim, dec.exact)
    for b in dec.blocks:
        p = b.projector
        # idempotency
        assert frobenius_norm(mat_mul(p, p) - p) <= tol
        # nilpotency at the stated order
        assert frobenius_norm(b.nilpotent.power(b.order)) <= tol
        if b.order > 1:
            assert frobenius_norm(b.nilpotent.power(b.order - 1)) > tol
        # absorption P N = N P = N
        assert frobenius_norm(mat_mul(p, b.nilpotent) - b.nilpotent) <= tol
        assert frobenius_norm(mat_mul(b.nilpotent, p) - b.nilpotent) <= tol
        total = total + p
    # completeness
    assert frobenius_norm(total - ident) <= tol
    # mutual orthogonality
    for a in dec.blocks:
        for b in dec.blocks:
            if a.block_index != b.block_index:
                prod = mat_mul(a.projector, b.projector)
                assert frobenius_norm(prod) <= tol


class TestPrescribed:
    def test_single_jordan_block(self):
        m = Matrix([[complex(2), complex(1)], [complex(0), complex(2)]],
                   exact=False)
        dec = decompose(m)
        assert dec.signature() == ((2,),)
        assert len(dec.blocks) == 1
        assert dec.blocks[0].order == 2
        _check_invariants(dec)
        assert frobenius_norm(dec.reconstruct() - m) <= 1e-9

    def test_from_structure_exact_roundtrip(self):
        rng = random.Random(5)
        for seed in range(8):
            m, dec = draw_fixture(rng, rng.randint(2, 5), max_block=3,
                                  exact=True)
            assert dec.reconstruct() == m
            _check_invariants(dec, tol=0)

    def test_split_parts(self):
        _, dec = gen_fixture([(Fraction(1), [2]), (Fraction(3), [1])],
                             seed=2, exact=True)
        xp, xn = dec.split_parts()
        assert xp + xn == dec.reconstruct()
        # the parts commute and X_N is nilpotent
        assert mat_mul(xp, xn) == mat_mul(xn, xp)
        assert xn.power(2).is_zero()

    def test_validate_reports_zero_exact(self):
        _, dec = gen_fixture([(Fraction(0), [2, 1])], seed=9, exact=True)
        report = dec.validate()
        assert all(v == 0 for v in report.values())


class TestAuto:
    def test_diagonalizable_float(self):
        rng = random.Random(0)
        for _ in range(6):
            m, truth = draw_fixture(rng, 4, max_block=1, exact=False,
                                    distinct=True)
            dec = decompose(m, tol=1e-8)
            assert dec.signature() == truth.signature()
            _check_invariants(dec, tol=1e-7)
            assert frobenius_norm(dec.reconstruct() - m) <= 1e-7

    def test_jordan_structure_float(self):
        rng = random.Random(3)
        for _ in range(6):
            m, truth = draw_fixture(rng, 4, max_block=2, exact=False,
                                    distinct=True)
            dec = decompose(m, tol=1e-8)
            assert dec.signature() == truth.signature()
            _check_invariants(dec, tol=1e-6)

    def test_exact_auto_rational_eigenvalues(self):
        _, truth = gen_fixture([(Fraction(1), [2]), (Fraction(-2), [1])],
                               seed=4, exact=True)
        dec = decompose(truth.reconstruct(), mode="auto")
        assert dec.exact
        assert dec.signature() == truth.signature()
        assert dec.reconstruct() == truth.reconstruct()
        _check_invariants(dec, tol=0)

    def test_eigenvalues_sorted(self):
        _, dec = gen_fixture([(Fraction(2), [1]), (Fraction(-1), [2]),
                              (Fraction(0), [1])], seed=7, exact=True)
        eigs = [complex(Fraction(e.re), 0) if hasattr(e, "re") else complex(e)
                for e in [b.eigenvalue for b in dec.blocks]]
        keys = [(z.real, z.imag) for z in eigs]
        assert keys == sorted(keys)

    def test_derogatory_matrix(self):
        # two chains for one eigenvalue
        _, truth = gen_fixture([(Fraction(1), [2, 1])], seed=1, exact=True)
        m = truth.reconstruct()
        dec = decompose(m.to_float(), tol=1e-8)
        assert dec.signature() == truth.signature()
        _check_invariants(dec, tol=1e-6)

    def test_complex_eigenvalues_float(self):
        # rotation-like matrix: eigenvalues +-i
        m = Matrix([[complex(0), complex(-1)], [complex(1), complex(0)]],
                   exact=False)
        dec = decompose(m)
        eigs = sorted((e.imag for e in
                       [complex(b.eigenvalue) for b in dec.blocks]))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-9)
        _check_invariants(dec, tol=1e-9)

    def test_transform_consistency(self):
        _, dec = gen_fixture([(Fraction(1), [2]), (Fraction(2), [2])],
                             seed=6, exact=True)
        assert mat_mul(dec.transform, dec.transform_inv) == \
            Matrix.identity(dec.dim, True)


class TestErrors:
    def test_structure_dim_mismatch(self):
        v = Matrix.identity(3, True)
        with pytest.raises(DecompositionError):
            from_structure([(Fraction(1), [2])], v)

    @pytest.mark.parametrize("length", [0, -1, 1.0])
    def test_chain_length_not_positive_integer(self, length):
        v = Matrix.identity(3, True)
        with pytest.raises(DecompositionError,
                           match=f"chain length {length} is not"):
            from_structure([(Fraction(1), [3, length])], v)

    @pytest.mark.parametrize("rows, near", [
        ([[0, 2], [1, 0]], "1.41421"),      # companion of z^2 - 2
        ([[0, -1], [1, -1]], "0.866025"),   # companion of z^2 + z + 1
    ])
    def test_exact_irrational_eigenvalues(self, rows, near):
        m = Matrix([[QC(v) for v in r] for r in rows], exact=True)
        with pytest.raises(DecompositionError,
                           match=f"requires rational eigenvalues: .*{near}"):
            decompose(m)

    def test_exact_eigenvalue_beyond_float_precision(self):
        # mu = 10**17 + 1 for B = 10**17 X is not a float; the rounded
        # root is refined exactly
        lam = 1 + Fraction(1, 10 ** 17)
        m = Matrix([[QC(lam), QC(1)], [QC(0), QC(2)]], exact=True)
        dec = decompose(m)
        assert dec.eigenvalues == [QC(lam), QC(2)]
        assert dec.reconstruct() == m

    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_chain_count_guard(self, seed):
        # the rank profile of these matrices yields more chain vectors
        # than the dimension; the guard names both numbers
        m, _ = gen_fixture([(1.0, [2, 1]), (-1.0, [2, 1]), (2.0, [3, 1])],
                           seed=seed)
        with pytest.raises(DecompositionError,
                           match=r"found \d+ chain vectors .* dim 10"):
            decompose(m)

    def test_auto_reconstruction_guard(self):
        # the rank profile gives the right signature, but the chains do
        # not reproduce the matrix; the guard names residual and signature
        m, _ = gen_fixture([(2.0, [3, 1])], seed=617739271)
        with pytest.raises(DecompositionError,
                           match=r"residual .* exceeds .* signature "
                                 r"\(\(3, 1\),\)"):
            decompose(m)


# chains of at most 2; the float rank tolerance carries the matrix scale
SCALED = [
    [(1.0, [1]), (2.0, [1])],
    [(1.0, [2]), (3.0, [1])],
    [(2.0, [2, 1])],
    [(-1.0, [2]), (1.0, [2])],
    [(0.0, [1]), (1.0, [2]), (2.0, [1])],
]


class TestScale:
    """Float auto decomposition of large matrices: it finds the structure
    up to entries of 1e8 or fails loudly, with no numpy warning."""

    def test_large_diagonal(self):
        dec = decompose(Matrix([[1e6, 0], [0, 2e6]], exact=False))
        assert dec.signature() == ((1,), (1,))
        assert dec.eigenvalues == [1e6, 2e6]

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
    @pytest.mark.parametrize("case", range(len(SCALED)))
    def test_scaled_fixture_keeps_signature(self, case, scale):
        x, truth = gen_fixture(SCALED[case], seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = decompose(x.scale(scale))
        assert dec.signature() == truth.signature()

    @pytest.mark.parametrize("scale", [1e9, 1e10, 1e11, 1e12])
    @pytest.mark.parametrize("case", range(len(SCALED)))
    def test_beyond_the_rank_tolerance_fails_loudly(self, case, scale):
        # a chain's rank decisions fail past about 1e8 (ROADMAP item 8),
        # where exactly depends on rounding; the rank profile stops at the
        # multiplicity instead of overflowing
        x, truth = gen_fixture(SCALED[case], seed=3)
        chains = max(map(max, truth.signature())) > 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert decompose(x.scale(scale)).signature() == \
                    truth.signature()
            except DecompositionError:
                assert chains
        if chains and scale == 1e12:
            with pytest.raises(DecompositionError):
                decompose(x.scale(scale))


# (structure, distinct eigenvalues, signature) with several chains per
# eigenvalue; from_structure sorts eigenvalues and puts longer chains first
MULTI_CHAIN = [
    ([(Fraction(1), [1, 2]), (Fraction(-1), [1])],
     [-1, 1], ((1,), (2, 1))),
    ([(Fraction(2), [2, 2]), (Fraction(0), [1, 1])],
     [0, 2], ((1, 1), (2, 2))),
    ([(Fraction(1), [1, 3, 1])], [1], ((3, 1, 1),)),
    ([(Fraction(-1), [2]), (Fraction(3), [1, 1, 1])],
     [-1, 3], ((2,), (1, 1, 1))),
]


def _dense_chain_matrices(dec):
    """Per block, (V Sel) V^-1 and (V S) V^-1 with the 0/1 selection and
    shift of the chain's columns built as dense matrices, the columns
    found by accumulating the chain lengths in block order."""
    n = dec.dim
    zero, one = (QC(0), QC(1)) if dec.exact else (0j, 1 + 0j)
    out = []
    start = 0
    for b in dec.blocks:
        sel = [[zero] * n for _ in range(n)]
        shift = [[zero] * n for _ in range(n)]
        for c in range(start, start + b.order):
            sel[c][c] = one
            if c + 1 < start + b.order:
                shift[c][c + 1] = one
        out.append(tuple(
            mat_mul(mat_mul(dec.transform, Matrix(e, exact=dec.exact)),
                    dec.transform_inv) for e in (sel, shift)))
        start += b.order
    return out


class TestChainMatrices:
    """Chain matrices are built from V, V^-1 and the chain spans on first
    access; the decomposition itself multiplies nothing."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        real = gmoical.jordan.mat_mul

        def counting(a, b):
            calls.append(a.dim)
            return real(a, b)
        monkeypatch.setattr(gmoical.jordan, "mat_mul", counting)
        return calls

    def test_from_structure_makes_no_products(self, products):
        for seed, (structure, _, _) in enumerate(MULTI_CHAIN):
            for exact in (True, False):
                s = [(lam if exact else complex(lam), lengths)
                     for lam, lengths in structure]
                _, truth = gen_fixture(s, seed=seed, exact=exact)
                del products[:]
                dec = from_structure(s, truth.transform)
                assert products == []
                p = dec.blocks[0].projector
                count = len(products)
                assert count
                assert dec.blocks[0].projector is p
                assert len(products) == count

    def test_auto_decompositions_make_no_products(self, products):
        m, _ = gen_fixture([(1.0, [2, 1]), (3.0, [1])], seed=3)
        _, truth = gen_fixture(MULTI_CHAIN[0][0], seed=4, exact=True)
        x = truth.reconstruct()
        del products[:]
        assert decompose(m).signature() == ((2, 1), (1,))
        assert decompose(x, mode="auto").signature() == truth.signature()
        assert products == []

    @pytest.mark.parametrize("case", range(len(MULTI_CHAIN)))
    def test_matches_dense_construction(self, case):
        structure, eigs, sig = MULTI_CHAIN[case]
        _, dec = gen_fixture(structure, seed=20 + case, exact=True)
        assert dec.eigenvalues == [QC(e) for e in eigs]
        assert dec.signature() == sig
        dense = _dense_chain_matrices(dec)
        for b, (p, n) in zip(dec.blocks, dense):
            assert b.projector == p
            assert b.nilpotent == n
            want = []
            for _ in range(1, b.order):
                want.append(mat_mul(want[-1], n) if want else n)
            assert list(b.powers) == want
        counts = {}
        for b in dec.blocks:
            counts[b.eigenvalue] = counts.get(b.eigenvalue, 0) + 1
            assert b.block_index == counts[b.eigenvalue]

    @pytest.mark.parametrize("case", range(len(MULTI_CHAIN)))
    def test_matches_dense_construction_float(self, case):
        # N**q is V S**q V^-1, not a product of N's: equal up to rounding
        structure, _, sig = MULTI_CHAIN[case]
        _, dec = gen_fixture([(complex(lam), lengths)
                              for lam, lengths in structure],
                             seed=20 + case, exact=False)
        assert dec.signature() == sig
        for b, (p, n) in zip(dec.blocks, _dense_chain_matrices(dec)):
            assert b.projector == p
            assert b.nilpotent == n
            want = n
            for got in b.powers:
                assert frobenius_norm(got - want) <= \
                    1e-13 * frobenius_norm(want)
                want = mat_mul(want, n)
            assert len(b.powers) == b.order - 1
