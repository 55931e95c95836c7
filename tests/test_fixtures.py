"""Fixture generation: prescribed structures, conditioning control, and
seed determinism."""

import random
from fractions import Fraction

import pytest

from gmoical import (DecompositionError, FixtureError, Matrix, gen_fixture,
                     random_fixture, random_matrix, random_structure)


class TestGenFixture:
    def test_prescribed_structure(self):
        m, dec = gen_fixture([(Fraction(1), [2]), (Fraction(2), [1])],
                             seed=0, exact=True)
        assert dec.signature() == ((2,), (1,))
        assert dec.reconstruct() == m

    def test_seed_determinism(self):
        a, _ = gen_fixture([(Fraction(1), [2, 1])], seed=42, exact=True)
        b, _ = gen_fixture([(Fraction(1), [2, 1])], seed=42, exact=True)
        c, _ = gen_fixture([(Fraction(1), [2, 1])], seed=43, exact=True)
        assert a == b
        assert a != c

    def test_float_mode(self):
        m, dec = gen_fixture([(1.5, [1, 1]), (0.25, [2])], seed=3,
                             exact=False)
        assert not dec.exact
        # blocks are reported in eigenvalue-sorted order
        assert dec.signature() == ((2,), (1, 1))

    def test_chain_length_below_one_fails_at_once(self, monkeypatch):
        import gmoical.fixtures as fixtures
        draws = []
        monkeypatch.setattr(fixtures, "_random_transform",
                            lambda *a: draws.append(a))
        for structure in ([(1.0, [2]), (1.0, [0])],
                          [(1.0, [3]), (2.0, [-1])]):
            with pytest.raises(DecompositionError, match="chain length"):
                gen_fixture(structure, seed=0)
        assert draws == []

    def test_singular_transform_is_redrawn(self, monkeypatch):
        import gmoical.fixtures as fixtures
        draw = fixtures._random_transform
        singular = Matrix([[1, 1], [1, 1]], exact=True)
        draws = []

        def two_singular_first(*a):
            draws.append(a)
            return singular if len(draws) <= 2 else draw(*a)

        monkeypatch.setattr(fixtures, "_random_transform",
                            two_singular_first)
        _, dec = gen_fixture([(Fraction(1), [2])], seed=0, exact=True)
        assert len(draws) == 3 and dec.transform != singular
        draws.clear()
        with pytest.raises(FixtureError, match="well-conditioned"):
            gen_fixture([(Fraction(1), [2])], max_tries=2, exact=True)

    def test_condition_control(self):
        import numpy as np
        for seed in range(20):
            _, dec = gen_fixture([(Fraction(0), [2, 2])], seed=seed,
                                 exact=True)
            cond = np.linalg.cond(dec.transform.to_numpy())
            assert cond <= 1e6


class TestRandomStructure:
    def test_partitions_dim(self):
        rng = random.Random(0)
        for _ in range(20):
            dim = rng.randint(2, 6)
            structure = random_structure(rng, dim, max_block=3)
            total = sum(m for _, lengths in structure for m in lengths)
            assert total == dim

    def test_distinct_eigenvalues(self):
        rng = random.Random(1)
        for _ in range(10):
            structure = random_structure(rng, 4, max_block=1, distinct=True)
            eigs = [lam for lam, _ in structure]
            assert len(eigs) == len(set(eigs))

    def test_random_fixture_roundtrip(self):
        rng = random.Random(2)
        m, dec = random_fixture(rng, 4, max_block=2, exact=True)
        assert dec.reconstruct() == m


class TestRandomMatrix:
    def test_exact_entries_rational(self):
        rng = random.Random(3)
        m = random_matrix(rng, 3, exact=True)
        assert m.exact

    def test_determinism(self):
        a = random_matrix(random.Random(7), 3, exact=False)
        b = random_matrix(random.Random(7), 3, exact=False)
        assert (a - b).is_zero()
