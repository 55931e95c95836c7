"""Benchmark of gmoical: one workload, one seed, closed loop.

    python3 perfbench/run.py --workload gmoi_float --seed 1 --seconds 26 --trace 0

One caller in this one process runs the workload's ops back to back, the
next op starting when the previous one returns, and checks every result
against an independent oracle. The report ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 gives the end-to-end metrics of a run of whole rounds, a round
being one cycle over each input set: one round, and more while they fit
in --seconds of time spent in ops. --trace 1 makes one untraced and one
traced pass over one round, and gives per-layer metrics from the traced
pass, the tracing overhead between the two passes, and the failure shares
of the probes.
The program is imported from ``src/`` next to this directory and nowhere
else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

Sample = namedtuple("Sample", "kind seconds passed err error")


def _pin_environment():
    """One BLAS/OpenMP thread, set before numpy is first imported, and no
    term budget from the caller's environment, which could turn ops into
    exit-3 failures."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GMOI_BUDGET", None)


def measure(op):
    """Run and check one op. Time spent on an attempt that fails counts
    like any other."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as e:      # an op that raises is a failed attempt
        return Sample(op.kind, time.perf_counter() - start, False, None,
                      f"{type(e).__name__}: {e}")
    seconds = time.perf_counter() - start
    try:
        passed, err = op.check(result)
    except Exception as e:      # output the check cannot read
        return Sample(op.kind, seconds, False, None,
                      f"check raised {type(e).__name__}: {e}")
    return Sample(op.kind, seconds, passed, err,
                  None if passed else f"check failed, error {err:.3e}")


def tail_percentile(values, distinct, beyond=TAIL_BEYOND):
    """(p, value): p is the highest whole percentile that leaves at least
    ``beyond`` of the ``distinct`` inputs of one round above its nearest
    rank; value is the nearest-rank p-th percentile of ``values``, which
    holds one sample per input per round. Fixing p by the inputs, not by
    the samples, keeps it the same whatever number of rounds a run makes.
    (100, max) when there are too few inputs."""
    xs = sorted(values)
    p = next((p for p in range(99, 0, -1)
              if distinct - math.ceil(p * distinct / 100) >= beyond), 100)
    if not xs:
        return p, 0.0
    return p, xs[max(math.ceil(p * len(xs) / 100), 1) - 1]


def ops_per_s(samples):
    """Ops that passed per second spent in all attempts."""
    busy = sum(s.seconds for s in samples)
    return sum(s.passed for s in samples) / busy if busy else 0.0


def closed_loop(cycles, seconds):
    """Whole rounds, a round being one cycle over each input set: one
    round, then more while one more round of average length fits in
    ``seconds`` of time spent in ops. Every input runs once per round, so
    the mix of inputs is the same whatever the number of rounds."""
    samples = []
    busy = 0.0
    rounds = 0
    while not rounds or busy + busy / rounds <= seconds:
        for op in (op for cycle in cycles for op in cycle):
            samples.append(measure(op))
            busy += samples[-1].seconds
        rounds += 1
    return samples, rounds


def _summary(samples):
    failed = [s for s in samples if not s.passed]
    errs = [s.err for s in samples if s.err is not None]
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(samples),
        "max_rel_err": max(errs) if errs else 0.0,
        "errors": sorted({f"{s.kind}: {s.error}" for s in failed}),
    }


def end_to_end(samples, setup_s, distinct):
    passed = sorted(s.seconds for s in samples if s.passed)
    p, tail = tail_percentile(passed, distinct)
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(samples),
        "op_p50_ms": statistics.median(passed) * 1e3 if passed else 0.0,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, p


def _result_line(samples, metrics, units):
    summary = _summary(samples)
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    })


def run_untraced(cycles, seconds, setup):
    samples, rounds = closed_loop(cycles, seconds)
    distinct = sum(len(cycle) for cycle in cycles)
    metrics, p = end_to_end(samples, setup["setup_s"], distinct)
    summary = _summary(samples)
    n_passed = summary["attempted"] - summary["failed"]
    busy = sum(s.seconds for s in samples)
    print(f"closed loop, 1 caller: {rounds} rounds of {len(cycles)} input "
          f"sets, {len(samples)} ops, {busy:.3f} s in ops")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   (imports "
          f"{setup['import_s']:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"of inputs and one warm-up op, "
          f"{', '.join(f'{t:.4f}' for t in setup['repeats'])} s)")
    print(f"  ops_per_s    {metrics['ops_per_s']:.4f} 1/s   "
          f"({n_passed} passed / {busy:.3f} s in all attempts)")
    print(f"  op_p50_ms    {metrics['op_p50_ms']:.3f} ms   "
          f"(median of {n_passed} passed ops)")
    beyond = (f"{TAIL_BEYOND}+ of the {distinct} inputs of a round beyond"
              if p < 100 else
              f"the maximum: a round has too few inputs for {TAIL_BEYOND} "
              "beyond")
    print(f"  op_tail_ms   {metrics['op_tail_ms']:.3f} ms   (p{p} of "
          f"{n_passed} passed ops, {beyond})")
    print(f"  failed_ratio {summary['failed_ratio']:.4f} ratio   "
          f"({summary['failed']}/{summary['attempted']})")
    print(f"  max_rel_err  {summary['max_rel_err']:.3e} ratio   "
          "(largest relative Frobenius error against the oracle)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
    for line in summary["errors"]:
        print(f"  FAILED {line}")
    print(_result_line(samples, metrics, END_TO_END))


def run_traced(workload, cycles, seed):
    import tracing

    ops = [op for cycle in cycles for op in cycle]
    probes = workload.probe_calls(seed)
    untraced = [measure(op) for op in ops]
    tracer = tracing.Tracer()
    outcomes = {kind: [] for kind in probes}
    with tracer.installed():
        traced = []
        for op in ops:
            tracer.op += 1
            traced.append(measure(op))
        for kind, calls in probes.items():
            for call in calls:
                tracer.op += 1
                try:
                    outcomes[kind].append(bool(call()))
                except Exception:   # a probe that raises has failed
                    outcomes[kind].append(False)
    samples = untraced + traced
    summary = _summary(samples)
    metrics = tracer.layer_metrics(ops=len(traced))
    before, after = ops_per_s(untraced), ops_per_s(traced)
    metrics["trace.ops_per_s_untraced"] = before
    metrics["trace.ops_per_s_traced"] = after
    metrics["trace.overhead_pct"] = 100 * (1 - after / before) if before \
        else 0.0
    metrics["check.failed_ratio"] = summary["failed_ratio"]
    metrics["check.max_rel_err"] = summary["max_rel_err"]
    for name, _unit, _better in tracing.PER_LAYER:
        if name.startswith("probe."):
            results = outcomes.get(name.split(".")[1], [])
            metrics[name] = (results.count(False) / len(results)
                             if results else 0.0)
    print(f"traced pass: {len(traced)} ops, {metrics['trace.spans']} spans; "
          f"untraced pass over the same ops for the overhead")
    print(f"  tracing overhead {metrics['trace.overhead_pct']:.2f} % "
          f"(ops_per_s {before:.4f} untraced, {after:.4f} traced)")
    for name, unit, _better in tracing.PER_LAYER:
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    for kind, results in outcomes.items():
        if results:
            print(f"  probe {kind}: {results.count(False)}/{len(results)} "
                  "failed (known seed-state failures, not counted as ops)")
    for line in summary["errors"]:
        print(f"  FAILED {line}")
    print(_result_line(samples, metrics,
                       [(n, u) for n, u, _ in tracing.PER_LAYER]))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("gmoi_float", "exact_cli", "analysis_small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gmoical" / "__init__.py").is_file():
        print(f"error: no gmoical sources at {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    for name in workload.imports:
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    import gmoical
    if not Path(gmoical.__file__).resolve().is_relative_to(SRC):
        print(f"error: gmoical imported from {gmoical.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cycles = workload.cycles(args.seed, str(workdir))
            measure(cycles[0][0])
            repeats.append(time.perf_counter() - t0)
        setup = {"import_s": import_s, "repeats": repeats,
                 "setup_s": import_s + statistics.median(repeats)}
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{len(cycles)} input sets of {len(cycles[0])} ops")
        if args.trace:
            run_traced(workload, cycles, args.seed)
        else:
            run_untraced(cycles, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass                # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
