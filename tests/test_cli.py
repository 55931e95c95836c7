"""Command-line front end: exit codes, JSON schemas, round trips, and
seed determinism."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from gmoical.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def jordan2(tmp_path):
    """[[2,1],[0,2]] as a matrix file."""
    return _write(tmp_path, "m.json",
                  {"dim": 2, "entries": [[2, 0], [1, 0], [0, 0], [2, 0]]})


@pytest.fixture
def square_fn(tmp_path):
    return _write(tmp_path, "f.json",
                  {"kind": "polynomial", "coeffs": [0, 0, 1]})


class TestDecompose:
    def test_jordan_block(self, runner, jordan2):
        res = runner.invoke(main, ["decompose", jordan2, "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["eigenvalues"] == [[2.0, 0.0]]
        assert payload["blocks"][0]["order"] == 2
        assert all(v <= 1e-9 for v in payload["validation"].values())

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["decompose", "no-such-file.json"])
        assert res.exit_code == 2

    def test_malformed_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["decompose", str(bad)])
        assert res.exit_code == 2

    def test_inconsistent_rank_profile(self, runner, tmp_path):
        from gmoical import gen_fixture
        m, _ = gen_fixture([(1.0, [2, 1]), (-1.0, [2, 1]), (2.0, [3, 1])],
                           seed=0)
        res = runner.invoke(main, ["decompose",
                                   _write(tmp_path, "m.json", m.to_json())])
        assert res.exit_code == 2
        assert "chain vectors" in res.stderr

    def test_infinite_entry_exact(self, runner, tmp_path):
        m = _write(tmp_path, "inf.json", {"dim": 2, "entries": [
            [1, 0], [float("inf"), 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["decompose", m, "--exact"])
        assert res.exit_code == 2
        assert m in res.stderr and "not finite" in res.stderr

    @pytest.mark.parametrize("entries", [
        [[0, 0], [2, 0], [1, 0], [0, 0]],      # companion of z^2 - 2
        [[0, 0], [-1, 0], [1, 0], [-1, 0]],    # companion of z^2 + z + 1
    ])
    def test_irrational_eigenvalues_exact(self, runner, tmp_path, entries):
        m = _write(tmp_path, "c.json", {"dim": 2, "entries": entries})
        res = runner.invoke(main, ["decompose", m, "--exact"])
        assert res.exit_code == 2
        assert "requires rational eigenvalues" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("entries", [
        [[10 ** 400, 2 * 10 ** 400]], [[10 ** 400, 0]]])
    def test_eigenvalue_beyond_float_range_exact(self, runner, tmp_path,
                                                 entries):
        (a, b), = entries
        m = _write(tmp_path, "big.json", {"dim": 2, "entries": [
            [str(a), 0], [0, 0], [0, 0], [str(b), 0]]})
        res = runner.invoke(main, ["decompose", m, "--exact"])
        assert res.exit_code == 2
        assert res.stderr == ("error: exact decomposition: an eigenvalue of "
                              "magnitude about 10^400 is beyond the float "
                              "range\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("mode", [[], ["--exact"]])
    def test_boolean_entry(self, runner, tmp_path, mode):
        m = _write(tmp_path, "bool.json", {"dim": 2, "entries": [
            [[True, 0], [0, 0]], [[0, 0], [False, 0]]]})
        res = runner.invoke(main, ["decompose", m] + mode)
        assert res.exit_code == 2
        assert "[True, 0]" in res.stderr and "boolean" in res.stderr
        assert res.stdout == ""


class TestFuncmat:
    def test_square_of_jordan_block(self, runner, jordan2, square_fn):
        res = runner.invoke(main, ["funcmat", "--function", square_fn,
                                   "--matrices", jordan2, "--json"])
        assert res.exit_code == 0
        entries = json.loads(res.output)["result"]["entries"]
        assert entries == [[[4.0, 0.0], [4.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]]

    def test_exact_mode_rational_output(self, runner, tmp_path, jordan2):
        f = _write(tmp_path, "half.json",
                   {"kind": "polynomial", "coeffs": ["0", "0", "1/2"]})
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", jordan2, "--exact",
                                   "--json"])
        assert res.exit_code == 0
        entries = json.loads(res.output)["result"]["entries"]
        assert entries == [[[2, 0], [2, 0]], [[0, 0], [2, 0]]]

    def test_unknown_function_kind(self, runner, tmp_path, jordan2):
        f = _write(tmp_path, "bogus.json", {"kind": "bogus"})
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", jordan2])
        assert res.exit_code == 2

    @pytest.mark.parametrize("coeff", [True, [False, 0]])
    def test_boolean_coefficient(self, runner, tmp_path, jordan2, coeff):
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [coeff, 0, 1]})
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", jordan2, "--exact"])
        assert res.exit_code == 2
        assert "boolean" in res.stderr
        assert str(coeff) in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("symbol, field", [
        ({"kind": "power", "degree": True}, "degree"),
        ({"kind": "power", "degree": 2.7}, "degree"),
        ({"kind": "power", "degree": "3"}, "degree"),
        ({"kind": "dd-lift", "base": {"kind": "exp"}, "order": 1.5},
         "order"),
        ({"kind": "dd-lift", "base": {"kind": "exp"}, "order": -1},
         "order"),
        ({"kind": "product-moi", "zeta": True,
          "beta": {"kind": "polynomial-multi", "arity": 2,
                   "terms": [{"coeff": 1, "exponents": [1, 0]}]}}, "zeta"),
        ({"kind": "polynomial-multi", "arity": 1.0,
          "terms": [{"coeff": 1, "exponents": [1]}]}, "arity"),
        ({"kind": "polynomial-multi", "arity": 1,
          "terms": [{"coeff": 1, "exponents": [-1]}]}, "exponent"),
        ({"kind": "polynomial-multi", "arity": 1,
          "terms": [{"coeff": 1, "exponents": [True]}]}, "exponent"),
    ])
    def test_integer_field_checked(self, runner, tmp_path, jordan2, symbol,
                                   field):
        f = _write(tmp_path, "f.json", symbol)
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", jordan2])
        assert res.exit_code == 2
        assert f"{field} must be" in res.stderr
        assert res.stdout == ""

    def test_negative_degree(self, runner, tmp_path, jordan2):
        f = _write(tmp_path, "f.json", {"kind": "power", "degree": -1})
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", jordan2, "--exact",
                                   "--json"])
        assert res.exit_code == 0
        # [[2, 1], [0, 2]]^-1 = [[1/2, -1/4], [0, 1/2]]
        assert json.loads(res.output)["result"]["entries"] == [
            [["1/2", 0], ["-1/4", 0]], [[0, 0], ["1/2", 0]]]

    def test_budget_exceeded_exit_3(self, runner, jordan2, square_fn):
        res = runner.invoke(main, ["funcmat", "--function", square_fn,
                                   "--matrices", jordan2, "--budget", "0"])
        assert res.exit_code == 3

    def test_negative_budget_exit_2(self, runner, jordan2, square_fn):
        argv = ["funcmat", "--function", square_fn, "--matrices", jordan2]
        res = runner.invoke(main, argv + ["--budget", "-1"])
        assert res.exit_code == 2
        assert "--budget" in res.stderr
        res = runner.invoke(main, argv, env={"GMOI_BUDGET": "-3"})
        assert res.exit_code == 2
        assert "error: GMOI_BUDGET -3 is negative" in res.stderr

    def test_budget_env_not_an_integer_exit_2(self, runner, jordan2,
                                              square_fn):
        res = runner.invoke(main, ["funcmat", "--function", square_fn,
                                   "--matrices", jordan2],
                            env={"GMOI_BUDGET": "abc"})
        assert res.exit_code == 2
        assert "error: GMOI_BUDGET='abc' is not an integer" in res.stderr

    def test_too_many_slots_exit_2(self, runner, tmp_path):
        # 600 slots would overflow the slot sum's recursion
        m = _write(tmp_path, "m.json",
                   {"dim": 2, "entries": [[2, 0], [0, 0], [0, 0], [2, 0]]})
        f = _write(tmp_path, "f.json", {
            "kind": "polynomial-multi", "arity": 600,
            "terms": [{"coeff": 1, "exponents": [1] * 600}]})
        res = runner.invoke(main, ["funcmat", "--function", f,
                                   "--matrices", ",".join([m] * 600)])
        assert res.exit_code == 2
        assert "600 slots exceeds the limit of 250 slots" in res.stderr


class TestGmoi:
    def test_constant_symbol(self, runner, tmp_path, jordan2):
        beta = _write(tmp_path, "one.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [0, 0]}]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]})
        res = runner.invoke(main, ["gmoi", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--json"])
        assert res.exit_code == 0
        entries = json.loads(res.output)["result"]["entries"]
        assert entries == [[[1.0, 0.0], [2.0, 0.0]],
                           [[3.0, 0.0], [4.0, 0.0]]]

    def test_dump_terms(self, runner, tmp_path, jordan2):
        beta = _write(tmp_path, "z1.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [1, 0]}]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["gmoi", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--dump-terms", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert len(payload["patterns"]) == 4
        assert payload["patterns"][0]["modes"] == ["P", "P"]

    def test_nan_argument(self, runner, tmp_path, jordan2):
        beta = _write(tmp_path, "one.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [0, 0]}]})
        y = _write(tmp_path, "y.json", {"dim": 2, "entries": [
            [1, 0], [float("nan"), 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["gmoi", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--json"])
        assert res.exit_code == 2
        assert y in res.stderr and "not finite" in res.stderr


class TestBounds:
    def test_report_keys(self, runner, tmp_path, jordan2):
        beta = _write(tmp_path, "one.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [0, 0]}]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["bounds", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        for key in ("upperBound", "sortedLower", "minBetaLower",
                    "conditionHolds", "actualNorm"):
            assert key in payload
        assert payload["sortedLower"] <= payload["actualNorm"] + 1e-9

    def test_budget_error_names_the_walk(self, runner, tmp_path, jordan2):
        # each of the four patterns has one term, but the report's one
        # walk enumerates all four
        beta = _write(tmp_path, "one.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [1, 0]}]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["bounds", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--budget", "3"])
        assert res.exit_code == 3
        assert res.stdout == ""
        assert res.stderr == (
            "error: term budget exceeded: 4 terms > budget 3 (dim 2, "
            "options per slot [2, 2], modes (P,P) (P,N) (N,P) (N,N))\n")


def _huge_problem(tmp_path):
    """A quadratic's first divided difference at X = diag(10^200, 2 10^200):
    exact results whose squared norms are beyond the float range."""
    x = _write(tmp_path, "x.json", {"dim": 2, "entries": [
        [str(10 ** 200), 0], [0, 0], [0, 0], [str(2 * 10 ** 200), 0]]})
    y = _write(tmp_path, "y.json",
               {"dim": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]})
    beta = _write(tmp_path, "beta.json", {
        "kind": "dd-lift", "order": 1,
        "base": {"kind": "polynomial", "coeffs": [0, 0, 1]}})
    return ["--beta", beta, "--params", f"{x},{x}", "--args", y, "--exact"]


@pytest.mark.parametrize("command", ["bounds", "lipschitz"])
def test_norm_beyond_float_range_exact(runner, tmp_path, command):
    argv = [command] + _huge_problem(tmp_path)
    if command == "lipschitz":
        argv += ["--args2", _write(tmp_path, "z.json", {
            "dim": 2, "entries": [[1, 0], [1, 0], [3, 0], [4, 0]]})]
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stderr == ("error: the squared Frobenius norm of a dim-2 "
                          "matrix is beyond the float range\n")
    assert res.stdout == ""


def test_float_check_of_entries_beyond_float_range_exact(runner, tmp_path):
    # nilpotent, so the exact decomposition and derivative hold; the
    # float oracle cannot take the matrix
    x = _write(tmp_path, "x.json", {"dim": 2, "entries": [
        [0, 0], [str(10 ** 400), 0], [0, 0], [0, 0]]})
    y = _write(tmp_path, "y.json",
               {"dim": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]})
    f = _write(tmp_path, "f.json", {"kind": "polynomial", "coeffs": [0, 0, 1]})
    argv = ["derivative", "--function", f, "--x", x, "--y", y, "--exact"]
    assert runner.invoke(main, argv).exit_code == 0
    res = runner.invoke(main, argv + ["--verify"])
    assert res.exit_code == 2
    assert res.stderr == ("error: a dim-2 matrix has an entry beyond the "
                          "float range\n")
    assert res.stdout == ""


class TestLipschitz:
    def test_equal_args_zero(self, runner, tmp_path, jordan2):
        beta = _write(tmp_path, "one.json", {
            "kind": "polynomial-multi", "arity": 2,
            "terms": [{"coeff": 1, "exponents": [0, 0]}]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [2, 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["lipschitz", "--beta", beta,
                                   "--params", f"{jordan2},{jordan2}",
                                   "--args", y, "--args2", y, "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["actual"] == 0.0
        assert payload["holds"]


class TestVerifyPerturbation:
    def test_diagonalizable_first_order(self, runner, tmp_path):
        c = _write(tmp_path, "c.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [2, 0]]})
        d = _write(tmp_path, "d.json",
                   {"dim": 2, "entries": [[3, 0], [0, 0], [0, 0], [4, 0]]})
        x1 = _write(tmp_path, "x1.json",
                    {"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [5, 0]]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [0, 1, 1]})
        res = runner.invoke(main, ["verify-perturbation", "--function", f,
                                   "--c", c, "--d", d, "--x1", x1,
                                   "--args", y, "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["residual"] <= 1e-9

    def test_needs_x1_or_params(self, runner, tmp_path):
        c = _write(tmp_path, "c.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [2, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [0, 1]})
        res = runner.invoke(main, ["verify-perturbation", "--function", f,
                                   "--c", c, "--d", c, "--args", c])
        assert res.exit_code == 2


class TestDerivative:
    def test_first_derivative_with_verify(self, runner, tmp_path):
        x = _write(tmp_path, "x.json",
                   {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [2, 0]]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [0, 0, 1]})
        res = runner.invoke(main, ["derivative", "--function", f, "--x", x,
                                   "--y", y, "--order", "1", "--verify",
                                   "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        # d(X^2) along Y = XY + YX
        assert payload["result"]["entries"] == [
            [[0.0, 0.0], [3.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]]]
        assert payload["oracleResidual"] <= 1e-12 * 18 ** 0.5

    def test_order_9_exact(self, runner, tmp_path):
        # no order cap: d^9 (z^10) along Y at X = Y = I is 10! I
        i2 = _write(tmp_path, "i.json",
                    {"dim": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [0] * 10 + [1]})
        res = runner.invoke(main, ["derivative", "--function", f, "--x", i2,
                                   "--y", i2, "--order", "9", "--exact",
                                   "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["entries"] == [
            [[3628800, 0], [0, 0]], [[0, 0], [3628800, 0]]]

    def test_order_past_the_slot_limit_exit_2(self, runner, tmp_path):
        x = _write(tmp_path, "x.json",
                   {"dim": 2, "entries": [[2, 0], [0, 0], [0, 0], [2, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "polynomial", "coeffs": [0, 1]})
        res = runner.invoke(main, ["derivative", "--function", f, "--x", x,
                                   "--y", x, "--order", "600"])
        assert res.exit_code == 2
        assert "601 slots exceeds the limit of 250 slots" in res.stderr
        assert "Traceback" not in res.output

    @staticmethod
    def _verify_is_relative_1e12(res):
        assert res.exit_code == 0
        payload = json.loads(res.output)
        norm = sum(p * p for row in payload["result"]["entries"]
                   for entry in row for p in entry) ** 0.5
        assert payload["oracleResidual"] <= 1e-12 * norm

    def test_verify_pole_between_eigenvalues(self, runner, tmp_path):
        # no circle centred at 1 holds -1 and 3 but leaves out 3/2
        x = _write(tmp_path, "x.json",
                   {"dim": 2, "entries": [[-1, 0], [0, 0], [0, 0], [3, 0]]})
        y = _write(tmp_path, "y.json",
                   {"dim": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]})
        f = _write(tmp_path, "f.json",
                   {"kind": "rational", "num": [1], "den": ["-3/2", 1]})
        self._verify_is_relative_1e12(runner.invoke(main, [
            "derivative", "--function", f, "--x", x, "--y", y, "--verify",
            "--json"]))

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_verify_pole_beside_a_jordan_block(self, runner, tmp_path,
                                               order):
        # z^-2 on eigenvalues 1/2 (chain 2) and 2
        x = _write(tmp_path, "x.json", {"dim": 3, "entries": [
            [0.5, 0], [1, 0], [0, 0], [0, 0], [0.5, 0], [0, 0],
            [0, 0], [0, 0], [2, 0]]})
        y = _write(tmp_path, "y.json", {"dim": 3, "entries": [
            [1, 0], [-1, 0], [0, 1], [2, 0], [0, 0], [1, 0],
            [0, -1], [3, 0], [1, 0]]})
        f = _write(tmp_path, "f.json", {"kind": "power", "degree": -2})
        self._verify_is_relative_1e12(runner.invoke(main, [
            "derivative", "--function", f, "--x", x, "--y", y, "--order",
            order, "--verify", "--json"]))


class TestGenFixture:
    def test_seed_deterministic_files(self, runner, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(main, ["gen-fixture", "--blocks", "1:2,2:1",
                                       "--seed", "5", "--out", str(out)])
            assert res.exit_code == 0
            outs.append((out / "matrix.json").read_text())
        assert outs[0] == outs[1]

    def test_roundtrip_through_decompose(self, runner, tmp_path):
        out = tmp_path / "fx"
        res = runner.invoke(main, ["gen-fixture", "--blocks", "1:2",
                                   "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
        res2 = runner.invoke(main, ["decompose", str(out / "matrix.json"),
                                    "--json"])
        assert res2.exit_code == 0
        payload = json.loads(res2.output)
        assert payload["blocks"][0]["order"] == 2

    def test_bad_blocks_spec(self, runner):
        res = runner.invoke(main, ["gen-fixture", "--blocks", "nonsense"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("blocks, bad", [("1:2,1:0", "0"),
                                             ("1:3,2:-1", "-1")])
    def test_chain_length_below_one(self, runner, blocks, bad):
        res = runner.invoke(main, ["gen-fixture", "--blocks", blocks])
        assert res.exit_code == 2
        assert f"chain length {bad} " in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("dim", ["2", 0, -1, 1.5, True])
    def test_matrix_dim_not_positive_integer(self, runner, tmp_path, dim):
        m = _write(tmp_path, "m.json", {"dim": dim, "entries": [
            [1, 0], [0, 0], [0, 0], [1, 0]]})
        res = runner.invoke(main, ["decompose", m])
        assert res.exit_code == 2
        assert m in res.stderr and "'dim'" in res.stderr


class TestSelftest:
    def test_selftest_passes(self, runner):
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0
        assert res.output.count("PASS") == 4
        assert "FAIL" not in res.output


class TestCommonOptions:
    """Each command takes only the common options it reads."""

    @pytest.mark.parametrize("argv", [
        ["decompose", "MATRIX", "--budget", "1"],
        ["gen-fixture", "--blocks", "1:2", "--tol", "1"],
        ["gen-fixture", "--blocks", "1:2", "--budget", "1"],
        ["selftest", "--tol", "1"],
        ["selftest", "--exact"],
        ["selftest", "--json"],
        ["selftest", "--budget", "1"],
    ])
    def test_unread_option_is_rejected(self, runner, jordan2, argv):
        res = runner.invoke(main, [jordan2 if a == "MATRIX" else a
                                   for a in argv])
        assert res.exit_code == 2
        assert "No such option" in res.stderr

    def test_read_options_are_accepted(self, runner, jordan2, tmp_path):
        res = runner.invoke(main, ["decompose", jordan2, "--tol", "1e-8",
                                   "--exact", "--json"])
        assert res.exit_code == 0
        res = runner.invoke(main, ["gen-fixture", "--blocks", "1:2",
                                   "--exact", "--json"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["decomposition"]["exact"] is True


class TestDeterminism:
    def test_byte_identical_reruns(self, runner, jordan2, square_fn):
        outs = [runner.invoke(main, ["funcmat", "--function", square_fn,
                                     "--matrices", jordan2, "--json"]).output
                for _ in range(2)]
        assert outs[0] == outs[1]


class TestImports:
    def test_exact_commands_import_no_sympy(self):
        """Exact decompose, gmoi --patterns, bounds and
        verify-perturbation, run in a fresh interpreter, never import
        sympy."""
        from test_golden import COMMANDS, _resolve
        argvs = [_resolve(COMMANDS[name]) for name in (
            "decompose_exact", "gmoi_patterns_exact", "bounds_exact",
            "perturbation_x1_exact")]
        script = (
            "import json, sys\n"
            "from click.testing import CliRunner\n"
            "from gmoical.cli import main\n"
            "codes = [CliRunner().invoke(main, a).exit_code\n"
            "         for a in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'sympy' in sys.modules]))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", script,
                              json.dumps(argvs)], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert json.loads(out) == [[0, 0, 0, 0], False]
