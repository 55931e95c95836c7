"""Outside-in layer tracing: wrap public functions of gmoical's modules
from the benchmark's side and record one span per call.

Each layer function is replaced, for the duration of a ``with
Tracer().installed():`` block, by a wrapper that records a span: name,
start, end, parent span, op id, a note on the result, and whether it
raised. Every module-level alias of the function in ``gmoical`` and its
submodules is rebound, because modules import each other's functions by
name; the symbol partial is patched on the ``MultiFunction`` class and the
CLI on each click command's callback. Leaving the block restores every
original. Spans stay in memory, one compact array per field, until the
run ends: a traced ``analysis_small`` pass records a few million.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

# The public functions wrapped in each layer, a module of gmoical. The CLI
# layer wraps the callback of every click command. README.md lists which
# end-to-end metric each layer's numbers should move, on which workload.
LAYERS = {
    "numerics": ("mat_mul", "inverse"),
    "functions": ("MultiFunction.partial", "divided_difference"),
    "spectral_map": ("eval_slot_sum", "slot_options", "count_terms"),
    "engine": ("eval_gmoi",),
    "analysis": ("norm_report", "lipschitz_check", "perturbation_check_gdoi",
                 "continuity_experiment", "operational_cross_term"),
    "jordan": ("decompose", "from_structure"),
    "derivative": ("nth_derivative",),
    "cli": ("callback",),
}

ANALYSIS_REPORTS = frozenset(f"analysis.{f}" for f in LAYERS["analysis"])

# Per-layer metrics, in output order, with units and the better direction.
PER_LAYER = [
    ("numerics.mat_mul.calls", "count", "lower"),
    ("numerics.mat_mul.self_s", "s", "lower"),
    ("numerics.inverse.calls", "count", "lower"),
    ("numerics.inverse.self_s", "s", "lower"),
    ("functions.partial.calls", "count", "lower"),
    ("functions.partial.self_s", "s", "lower"),
    ("functions.partial.zero", "count", "lower"),
    ("functions.divided_difference.calls", "count", "lower"),
    ("functions.divided_difference.self_s", "s", "lower"),
    ("spectral_map.eval_slot_sum.calls", "count", "lower"),
    ("spectral_map.eval_slot_sum.self_s", "s", "lower"),
    ("spectral_map.slot_options.calls", "count", "lower"),
    ("spectral_map.terms", "count", "lower"),
    ("spectral_map.useful_term_ratio", "ratio", "higher"),
    ("engine.eval_gmoi.calls", "count", "lower"),
    ("engine.eval_gmoi.self_s", "s", "lower"),
    ("engine.integrals_per_op", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.integrals_per_report", "count", "lower"),
    ("jordan.decompose.calls", "count", "lower"),
    ("jordan.decompose.self_s", "s", "lower"),
    ("jordan.decompose.failed", "count", "lower"),
    ("jordan.from_structure.calls", "count", "lower"),
    ("jordan.from_structure.self_s", "s", "lower"),
    ("derivative.nth_derivative.calls", "count", "lower"),
    ("derivative.nth_derivative.self_s", "s", "lower"),
    ("derivative.decompositions_per_call", "count", "lower"),
    ("cli.invocations", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("check.failed_ratio", "ratio", "lower"),
    ("check.max_rel_err", "ratio", "lower"),
    ("probe.decompose_auto.failed_ratio", "ratio", "lower"),
    ("probe.nth_derivative.failed_ratio", "ratio", "lower"),
]


# span name -> what to keep of the wrapped call's return value
_NOTES = {
    "functions.partial": lambda value: int(not value),     # 1: zero
    "spectral_map.count_terms": int,
}


class Tracer:
    """Collects spans in memory, one array per field; ``op`` is the id of
    the benchmark op whose spans are being recorded."""

    def __init__(self):
        self.names = []             # span name of each name id
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")    # index of the parent span, -1 for none
        self.op_id = array("q")
        self.note = array("q")      # -1 when the name keeps no note
        self.failed = array("b")
        self.op = -1
        self._stack = []

    def wrap(self, fn, name):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        keep = _NOTES.get(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, note = self.parent, self.op_id, self.note
        failed, stack = self.failed, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0.0)
            note.append(-1)
            failed.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                failed[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if keep is not None:
                note[idx] = keep(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function; restore the originals on exit."""
        import gmoical.cli
        from gmoical.functions import MultiFunction

        restore = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gmoical"
                                         or n.startswith("gmoical."))]
        try:
            for layer, fnames in LAYERS.items():
                for fname in fnames:
                    name = f"{layer}.{fname.rsplit('.', 1)[-1]}"
                    if layer == "cli":
                        for cmd in gmoical.cli.main.commands.values():
                            restore.append((cmd, "callback", cmd.callback))
                            cmd.callback = self.wrap(cmd.callback,
                                                     "cli.callback")
                    elif fname == "MultiFunction.partial":
                        orig = MultiFunction.__dict__["partial"]
                        restore.append((MultiFunction, "partial", orig))
                        MultiFunction.partial = self.wrap(orig, name)
                    else:
                        owner = sys.modules[f"gmoical.{layer}"]
                        orig = getattr(owner, fname)
                        wrapped = self.wrap(orig, name)
                        for mod in modules:
                            for attr, value in list(vars(mod).items()):
                                if value is orig:
                                    restore.append((mod, attr, orig))
                                    setattr(mod, attr, wrapped)
            yield self
        finally:
            for obj, attr, orig in reversed(restore):
                setattr(obj, attr, orig)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, ops):
        """The per-layer metrics of PER_LAYER over every span recorded,
        except the trace.*, check.* and probe.* ones, which the caller
        measures."""
        n = len(self.start)
        start, end = self.start, self.end
        child = array("d", bytes(8 * n))    # time covered by child spans
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        ids = {name: i for i, name in enumerate(self.names)}
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        failed = [0] * len(self.names)
        reports = {ids[r] for r in ANALYSIS_REPORTS if r in ids}
        partial, slot_sum, count_terms, nth, decompose, gmoi = (
            ids.get(name, -1) for name in (
                "functions.partial", "spectral_map.eval_slot_sum",
                "spectral_map.count_terms", "derivative.nth_derivative",
                "jordan.decompose", "engine.eval_gmoi"))
        under_report = bytearray(n)
        under_nth = bytearray(n)
        zero = nonzero_leaf = terms = 0
        n_reports = integrals_in_reports = nth_decompositions = 0
        name_id, parent, note, fail = (self.name_id, self.parent, self.note,
                                       self.failed)
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
            failed[nid] += fail[i]
            p = parent[i]
            if p >= 0:
                pid = name_id[p]
                under_report[i] = under_report[p] or pid in reports
                under_nth[i] = under_nth[p] or pid == nth
                if nid == partial and pid == slot_sum and not fail[i]:
                    if note[i]:
                        zero += 1
                    else:
                        nonzero_leaf += 1
            if nid == count_terms and not fail[i]:
                terms += note[i]
            elif nid in reports and not under_report[i]:
                n_reports += 1
            elif nid == gmoi and under_report[i]:
                integrals_in_reports += 1
            elif nid == decompose and under_nth[i]:
                nth_decompositions += 1

        def total(counts, name):
            return counts[ids[name]] if name in ids else 0

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "functions.partial.zero": zero,
            "spectral_map.terms": terms,
            "spectral_map.useful_term_ratio": ratio(nonzero_leaf, terms),
            "engine.integrals_per_op": ratio(
                total(calls, "engine.eval_gmoi"), ops),
            "analysis.self_s": sum(self_s[i] for i in reports),
            "analysis.integrals_per_report": ratio(integrals_in_reports,
                                                   n_reports),
            "jordan.decompose.failed": total(failed, "jordan.decompose"),
            "derivative.decompositions_per_call": ratio(
                nth_decompositions, total(calls, "derivative.nth_derivative")),
            "cli.invocations": total(calls, "cli.callback"),
            "cli.self_s": float(total(self_s, "cli.callback")),
            "trace.spans": n,
        }
        for metric, _unit, _better in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in out or base.split(".")[0] not in LAYERS:
                continue
            if kind == "calls":
                out[metric] = total(calls, base)
            elif kind == "self_s":
                out[metric] = float(total(self_s, base))
        return out
