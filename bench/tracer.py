"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever the original is bound, in any module of the
package (``oracle.enumerate_sub_ball`` as well as
``error_model.enumerate_sub_ball``).  Each call records one span: function,
parent span, operation, start and end.  Generator functions record one span
per resume, so time spent by the consumer between items is not charged to
them; a function returned by a wrapped function (the weight of
``gspb_weight_rule``) records its calls under the function that returned it.

Self time of a span is its duration minus its children's durations; a
layer's self time is the sum over its functions.  Nothing under ``src/`` is
edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import types
from array import array
from time import perf_counter_ns

LAYERS = ("core", "error_model", "bounds", "substitution", "deletion",
          "oracle", "capacity", "cli")

#: functions reported on their own, per layer
FUNCTIONS = {
    "core": ("decompose_sequence", "reconstruct_rows"),
    "error_model": ("sub_ball_size", "enumerate_sub_ball",
                    "enumerate_received_rows", "enumerate_in_ball",
                    "enumerate_del_ball"),
    "bounds": ("gspb_upper", "lower_bound", "aspv", "emit_bound_table",
               "gspb_weight_rule"),
    "substitution": ("product_decode", "fiber_decode", "checksum_decode",
                     "product_membership", "fiber_membership",
                     "checksum_membership"),
    "deletion": ("vt_decode", "vt_row_decode", "vt_pair_decode",
                 "ternary_decode", "marker_row_decode", "marker_pair_decode",
                 "ternary_encode", "marker_row_encode", "marker_pair_encode"),
    "oracle": ("optimal_code_size", "exhaustive_decode_check",
               "check_fractional_transversal"),
    "capacity": ("capacity_composite", "blahut_arimoto"),
    "cli": ("main",),
}

#: enumerators whose returned sets are ball members
BALLS = ("enumerate_sub_ball", "enumerate_in_ball", "enumerate_del_ball")
SIZED = BALLS + ("enumerate_received_rows",)


def metric_names():
    """Every per-layer metric, with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
        for fn in FUNCTIONS[layer]:
            out += [(f"{layer}.{fn}.self_s", "s"), (f"{layer}.{fn}.calls", "count")]
    out += [("error_model.ball_members", "count"),
            ("error_model.valid_share", "ratio")]
    return out


class Tracer:
    def __init__(self):
        self.names: list = []          # function id -> "layer.function"
        self.fid = array("i")          # per span: function id
        self.parent = array("i")       # per span: parent span, -1 at the top
        self.opid = array("i")         # per span: operation index
        self.start = array("q")        # per span: perf_counter_ns at entry
        self.end = array("q")          # per span: perf_counter_ns at exit
        self.size = array("q")         # per span: len(result) for SIZED, else -1
        self.first = array("b")        # per span: 1 unless a generator resume
        self.stack: list = []
        self.op = -1
        self.round_starts: list = []   # first span of each round
        self._restore: list = []

    # -- recording

    def _open(self, fid: int, first: int) -> int:
        i = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.opid.append(self.op)
        self.size.append(-1)
        self.first.append(first)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, fid: int, sized: bool):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = 1
                while True:
                    i = tracer._open(fid, first)
                    first = 0
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            i = tracer._open(fid, 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if sized:
                tracer.size[i] = len(result)
            if type(result) is types.FunctionType:
                result = tracer._wrap(result, fid, False)
            return result
        return traced

    # -- installation

    def install(self):
        modules = {layer: importlib.import_module(f"composite_codec.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("composite_codec")
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                fid = len(self.names)
                self.names.append(f"{layer}.{name}")
                wrapped[id(obj)] = (obj, self._wrap(obj, fid, name in SIZED))
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # -- reduction

    def _child_ns(self):
        """Per span: time covered by its children."""
        child = array("q", bytes(8 * len(self.fid)))
        parent, start, end = self.parent, self.start, self.end
        for i in range(len(self.fid)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return child

    def totals(self):
        """Per function name: (self seconds, calls, ball members returned),
        plus the valid share of raw rows enumerated inside enumerate_sub_ball."""
        fid, parent, start, end, size = self.fid, self.parent, self.start, self.end, self.size
        child = self._child_ns()
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        members = [0] * len(self.names)
        sub_ball = self.names.index("error_model.enumerate_sub_ball")
        received = self.names.index("error_model.enumerate_received_rows")
        valid = raw = 0
        for i in range(len(fid)):
            f = fid[i]
            self_ns[f] += end[i] - start[i] - child[i]
            calls[f] += self.first[i]
            if size[i] >= 0:
                members[f] += size[i]
                if f == sub_ball:
                    valid += size[i]
                elif f == received and parent[i] >= 0 and fid[parent[i]] == sub_ball:
                    raw += size[i]
        table = {name: (self_ns[f] / 1e9, calls[f], members[f])
                 for f, name in enumerate(self.names)}
        return table, (valid / raw if raw else 0.0)

    def metrics(self, rounds: int):
        """Every per-layer metric, per round of the workload."""
        table, share = self.totals()
        values = {}
        for layer in LAYERS:
            rows = [v for name, v in table.items() if name.split(".")[0] == layer]
            values[f"{layer}.self_s"] = sum(r[0] for r in rows) / rounds
            values[f"{layer}.calls"] = sum(r[1] for r in rows) / rounds
            for fn in FUNCTIONS[layer]:
                s, c, _ = table[f"{layer}.{fn}"]
                values[f"{layer}.{fn}.self_s"] = s / rounds
                values[f"{layer}.{fn}.calls"] = c / rounds
        values["error_model.ball_members"] = sum(
            table[f"error_model.{fn}"][2] for fn in BALLS) / rounds
        values["error_model.valid_share"] = share
        return {name: {"value": values[name], "unit": unit}
                for name, unit in metric_names()}

    def save(self, path: str):
        """The first round's spans, summed per operation and call edge: one
        tab-separated row per (op, caller, function) with calls, self and
        total nanoseconds.  A round of exact-verify holds millions of spans,
        too many to write one by one."""
        stop = self.round_starts[1] if len(self.round_starts) > 1 else len(self.fid)
        child = self._child_ns()
        edges: dict = {}
        fid, parent, start, end = self.fid, self.parent, self.start, self.end
        for i in range(stop):
            p = parent[i]
            key = (self.opid[i], fid[p] if p >= 0 else -1, fid[i])
            acc = edges.get(key)
            if acc is None:
                acc = edges[key] = [0, 0, 0]
            total = end[i] - start[i]
            acc[0] += self.first[i]
            acc[1] += total - child[i]
            acc[2] += total
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tcaller\tfunction\tcalls\tself_ns\ttotal_ns\n")
            for (op, caller, f), (calls, self_ns, total) in sorted(edges.items()):
                fh.write(f"{op}\t{names[caller] if caller >= 0 else '-'}\t"
                         f"{names[f]}\t{calls}\t{self_ns}\t{total}\n")
