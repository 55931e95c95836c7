"""Self-tests of the benchmark: its oracles, its tracing and its inputs.

    python3 -m pytest perfbench
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gmoical  # noqa: E402
from gmoical import Matrix  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _corrupt_one_entry(m, delta):
    rows = [list(r) for r in m.rows]
    rows[1][2] += delta
    return Matrix(rows, exact=m.exact)


def test_float_oracle_rejects_one_corrupted_entry():
    op = workloads._gmoi_op(random.Random(1), random.Random(1),
                            [1.0, -0.5, 0.25, 0.5, -1.0], 6, 2)
    result = op.call()
    assert op.check(result)[0]
    scale = max(abs(e) for r in result.rows for e in r)
    passed, err = op.check(_corrupt_one_entry(result, 1e-6 * scale))
    assert not passed and err > workloads.FLOAT_TOL


def test_exact_oracle_rejects_one_corrupted_entry(tmp_path):
    op = next(o for o in workloads.build_exact_cli(
        random.Random(2), random.Random(2), str(tmp_path))
              if o.kind == "gmoi d4")
    text = op.call()
    assert op.check(text) == (True, 0)
    out = json.loads(text)
    re, im = out["result"]["entries"][0][1]
    out["result"]["entries"][0][1] = [str(Fraction(re) + Fraction(1, 10 ** 9)),
                                      im]
    passed, err = op.check(json.dumps(out))
    assert not passed and err > 0


def test_derivative_oracle_rejects_one_corrupted_entry():
    op = workloads._derivative_op(random.Random(3), random.Random(3),
                                  [0.5, 1.0, -1.0, 0.25, 0.5], 3, 3)
    result = op.call()
    assert op.check(result)[0]
    scale = max(abs(e) for r in result.rows for e in r)
    assert not op.check(_corrupt_one_entry(result, 1e-2 * scale))[0]


def _ops_for_tracing(tmp_path):
    rng = random.Random(4)
    coeffs = workloads._quartic(rng)
    exact = workloads.build_exact_cli(rng, rng, str(tmp_path))
    return ([workloads._gmoi_op(rng, rng, coeffs, 6, 2),
             workloads._continuity_op(rng, rng, coeffs),
             workloads._derivative_op(rng, rng, coeffs, 3, 2)]
            + workloads._report_ops(rng, rng, coeffs, 4, 2)
            + [o for o in exact if o.kind.endswith("d4")])


def _dump(result):
    if isinstance(result, str):
        return result
    if isinstance(result, Matrix):
        return json.dumps(result.to_json())
    return repr(result)


def test_traced_results_are_byte_identical(tmp_path):
    ops = _ops_for_tracing(tmp_path)
    plain = [_dump(op.call()) for op in ops]
    originals = (gmoical.numerics.mat_mul, gmoical.analysis.decompose,
                 gmoical.functions.MultiFunction.partial)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gmoical.numerics.mat_mul is not originals[0]
        assert gmoical.analysis.decompose is not originals[1]
        traced = [_dump(op.call()) for op in ops]
    assert traced == plain
    assert (gmoical.numerics.mat_mul, gmoical.analysis.decompose,
            gmoical.functions.MultiFunction.partial) == originals
    metrics = tracer.layer_metrics(ops=len(ops))
    assert metrics["cli.invocations"] == 3
    assert metrics["engine.eval_gmoi.calls"] > len(ops)
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert set(tracer.op_id) == {-1}


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "numerics.mat_mul")
    outer = tracer.wrap(lambda: inner(), "engine.eval_gmoi")
    outer()
    monkeypatch.undo()
    m = tracer.layer_metrics(ops=1)
    # outer runs from 0 to 3, inner from 1 to 2
    assert m["engine.eval_gmoi.self_s"] == 2
    assert m["numerics.mat_mul.self_s"] == 1


def _inputs(name, seed, tmp_path):
    cycles = workloads.WORKLOADS[name].cycles(seed, str(tmp_path / str(seed)))
    return json.dumps([op.inputs() for cycle in cycles for op in cycle])


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        first = _inputs(name, 7, tmp_path)
        assert _inputs(name, 7, tmp_path) == first
        assert _inputs(name, 8, tmp_path) != first


def test_tail_percentile_keeps_ten_inputs_beyond():
    assert run.tail_percentile(range(1, 101), 100) == (90, 90)
    p, value = run.tail_percentile(range(1, 50), 49)
    assert p == 79 and sum(v > value for v in range(1, 50)) >= 10
    # two rounds over the same 28 inputs: same percentile, same input
    one = [float(v) for v in range(28)]
    assert run.tail_percentile(one, 28) == run.tail_percentile(one * 2, 28)
    assert run.tail_percentile([3.0, 1.0], 2) == (100, 3.0)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) \
        == sorted(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER
