"""One slot-sum walk per problem: the sums of requested mode tuples against
their one-tuple walks and the dense per-chain reference, the number of
walks each report makes, and the budget error that names its walk."""

import itertools
import random

import pytest

from gmoical import (BudgetExceededError, GmoiProblem, eval_gmoi,
                     lift_divided_difference, norm_report, pattern_terms,
                     perturbation_check_gdoi, perturbation_check_general,
                     polynomial, random_matrix, slot_options)
from gmoical import analysis, engine
from gmoical.engine import eval_modes
from slot_sum_reference import chain_pattern_sums, restrict
from test_spectral_map import _assert_matches, _coeffs, _multi_chain_decs

MODES = ("P", "N", "full")


def _problem(zeta, dim, exact, seed):
    rng = random.Random(seed)
    decs = _multi_chain_decs(zeta + 1, dim, exact, rng)
    beta = lift_divided_difference(polynomial(_coeffs(rng, exact)), zeta)
    args = [random_matrix(rng, dim, exact=exact) for _ in range(zeta)]
    return GmoiProblem(beta, decs, args)


def _check_walk(problem, keys, sums):
    """Each requested sum equals its one-tuple walk bit for bit and the
    restriction of the per-chain reference."""
    want = chain_pattern_sums(problem.beta, problem.params, problem.args)
    for key in keys:
        assert sums[key] == eval_gmoi(problem, modes=key)
        _assert_matches(sums[key],
                        restrict(want, key, problem.dim, problem.exact),
                        problem.exact)


class TestRequestedModes:
    # several chains per eigenvalue in every slot; zeta = 3 asks for the
    # 16 P/N patterns and a few mixed tuples, the others for every tuple
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("zeta,exact_dim,float_dim",
                             [(1, 4, 6), (2, 4, 5), (3, 3, 4)])
    def test_every_tuple_of_one_walk(self, exact, zeta, exact_dim,
                                     float_dim):
        problem = _problem(zeta, exact_dim if exact else float_dim, exact,
                           100 + 10 * zeta + exact)
        if zeta < 3:
            keys = list(itertools.product(MODES, repeat=zeta + 1))
        else:
            keys = (list(itertools.product("PN", repeat=zeta + 1))
                    + [("full",) * 4, ("P", "full", "N", "full"),
                       ("full", "N", "full", "P")])
        _check_walk(problem, keys, eval_modes(problem, keys))

    def test_duplicate_and_single_keys(self):
        problem = _problem(1, 4, True, 7)
        sums = eval_modes(problem, [("P", "N"), ("P", "N"), ("N", "full")])
        assert sums[("P", "N")] == eval_gmoi(problem, modes=("P", "N"))
        assert sums[("N", "full")] == eval_gmoi(problem, modes=("N", "full"))

    @pytest.mark.parametrize("exact", [False, True])
    def test_perturbation_general_tuples(self, exact, monkeypatch):
        # the mixed full/P/N tuples of the interior-slot identity at j = 2
        rng = random.Random(60 + exact)
        p1, c, d, p2 = _multi_chain_decs(4, 4, exact, rng)
        f = polynomial(_coeffs(rng, exact, 3))
        args = [random_matrix(rng, 4, exact=exact) for _ in range(2)]
        walks = []

        def recording(problem, keys, budget=None):
            sums = eval_modes(problem, keys, budget=budget)
            walks.append((problem, keys, sums))
            return sums

        monkeypatch.setattr(analysis, "eval_modes", recording)
        rep = perturbation_check_general(
            lift_divided_difference(f, 2), lift_divided_difference(f, 3),
            [p1, p2], 2, c, d, args)
        monkeypatch.undo()
        assert len(walks) == 3
        assert {len(keys) for _, keys, _ in walks} == {17, 9}
        assert ("P", "N", "P", "N") in walks[0][1]
        for problem, keys, sums in walks:
            _check_walk(problem, keys, sums)
        if exact:
            assert rep.residual == 0.0


def _count_walks(monkeypatch):
    calls = []
    walk = engine.eval_slot_sum

    def counting(*args, **kwargs):
        calls.append(kwargs.get("keys"))
        return walk(*args, **kwargs)

    monkeypatch.setattr(engine, "eval_slot_sum", counting)
    return calls


class TestWalkCounts:
    def test_norm_report_and_pattern_terms(self, monkeypatch):
        problem = _problem(2, 4, True, 3)
        calls = _count_walks(monkeypatch)
        norm_report(problem)
        assert len(calls) == 1
        pattern_terms(problem)
        assert len(calls) == 2

    def test_perturbation_checks(self, monkeypatch):
        rng = random.Random(5)
        x1, p2, c, d = _multi_chain_decs(4, 3, True, rng)
        f = polynomial(_coeffs(rng, True, 3))
        y = random_matrix(rng, 3, exact=True)
        calls = _count_walks(monkeypatch)
        perturbation_check_gdoi(lift_divided_difference(f, 1),
                                lift_divided_difference(f, 2),
                                c, d, x1, y)
        assert len(calls) == 3
        perturbation_check_general(lift_divided_difference(f, 2),
                                   lift_divided_difference(f, 3),
                                   [x1, p2], 2, c, d, [y, y])
        assert len(calls) == 6


class TestBudgetNamesTheWalk:
    def test_combined_walk_counts_every_term(self):
        problem = _problem(1, 4, True, 9)
        options = tuple(len(slot_options(d)) for d in problem.params)
        full = options[0] * options[1]
        largest = max(
            len(slot_options(problem.params[0], m0))
            * len(slot_options(problem.params[1], m1))
            for m0, m1 in itertools.product("PN", repeat=2))
        assert largest < full
        # every pattern fits the budget alone, but one walk enumerates all
        with pytest.raises(BudgetExceededError) as info:
            pattern_terms(problem, budget=largest)
        err = info.value
        assert (err.needed, err.budget, err.dim) == (full, largest, 4)
        assert err.options == options
        assert err.keys == (("P", "P"), ("P", "N"), ("N", "P"), ("N", "N"))
        assert str(err) == (
            f"term budget exceeded: {full} terms > budget {largest} "
            f"(dim 4, options per slot {list(options)}, "
            f"modes (P,P) (P,N) (N,P) (N,N))")
        assert len(pattern_terms(problem, budget=full)) == 4

    def test_plain_sum_has_no_keys(self):
        problem = _problem(1, 4, False, 11)
        with pytest.raises(BudgetExceededError) as info:
            engine.eval_slot_sum(problem.beta, problem.params,
                                 interleave=list(problem.args), budget=1)
        assert info.value.keys is None
        assert info.value.dim == 4
        assert "modes" not in str(info.value)
