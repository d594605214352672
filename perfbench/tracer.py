"""Span tracing of the library's layers, installed from outside the library.

Every public function of each ``macfeedback`` module is wrapped at every
module namespace that binds it: ``from .x import y`` copies the binding,
so wrapping only the defining module would miss callers that hold their
own copy (``oracle.batch_pentagon`` is such a copy). The construction
and validation of the channel objects is caught through their
``__post_init__``. ``Tracer.restore`` puts every original binding back.

A span records its name, start, end, parent span and the benchmark item
it ran under. The library runs on one thread, so spans nest as a stack,
and a span's self time is its duration minus that of its direct children.
Counts are read from arguments and return values (array shapes,
``OptResult.iterations`` and ``.converged``, the points of a frontier),
never inferred from timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

# The layers are the modules of the package; catalog only builds inputs and
# errors has no work to measure.
LAYERS = ("_util", "channel", "channel_io", "infotheory", "optimize", "regions",
          "groups", "checkers", "oracle", "cli")
CHANNEL_OBJECTS = ("Pmf", "ConditionalPmf", "Mac", "JointDist")

# Per-layer metrics the benchmark reports: (name, unit, better).
_CALLS_SELF = [
    "optimize.max_support_input", "optimize.maximize_joint_mi",
    "regions.cutset_single_rate", "regions.cutset_sum_rate",
    "channel.objects", "channel.induced_channel", "channel.validate_mac",
    "channel_io.load_channel_file", "cli.main",
    "checkers.single_rate_capacity", "checkers.gain_sufficient_condition",
    "checkers.compress_forward_curve", "checkers.classify_additive_gain",
    "checkers.erasure_scaling_check",
    "groups.verify_additive", "groups.channel_given_sum", "groups.equivalence_classes",
    "groups.conditional_mi_spread",
    "infotheory.mutual_information", "infotheory.conditional_mi",
    "infotheory.kl_divergence_vec",
    "oracle.grid_capacity", "oracle.grid_cl_point", "oracle.brute_force_condition2",
]
_UNITS = {"calls": "count", "rows": "count", "elements": "count", "iterations": "count",
          "iter_p50": "count", "iter_p90": "count", "unconverged": "count",
          "rows_per_direction": "count", "bytes_computed": "bytes", "self_s": "s",
          "ns_per_row": "ns"}


def _spec(fn, stats):
    return [(f"{fn}.{s}", _UNITS[s], "lower") for s in stats]


PER_LAYER = (
    _spec("regions.batch_pentagon", ["calls", "rows", "self_s", "ns_per_row"])
    + _spec("regions.cover_leung_frontier", ["calls", "self_s", "rows_per_direction"])
    + _spec("util.project_rows_to_simplex", ["calls", "rows", "self_s"])
    + _spec("util.entropy_bits", ["calls", "elements", "bytes_computed", "self_s"])
    + _spec("optimize.blahut_arimoto",
            ["calls", "iterations", "iter_p50", "iter_p90", "unconverged", "self_s"])
    + [m for fn in _CALLS_SELF for m in _spec(fn, ["calls", "self_s"])]
    + [("import.macfeedback_s", "s", "lower"), ("import.numpy_s", "s", "lower"),
       ("import.scipy_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
)


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(kwargs.get("p_u", args[1] if len(args) > 1 else None))[0])}


def _simplex_rows(args, kwargs, result):
    return {"rows": int(np.prod(np.shape(args[0])[:-1]))}


def _elements(args, kwargs, result):
    table = np.asarray(args[0] if args else kwargs["table"])
    # Bytes the kernel reads, computed from the array size; not measured.
    return {"elements": int(table.size), "bytes_computed": int(table.nbytes)}


def _ba(args, kwargs, result):
    return {"iterations": int(result.iterations), "unconverged": int(not result.converged)}


def _directions(args, kwargs, result):
    return {"directions": len(result.points)}


COUNTERS = {
    "regions.batch_pentagon": _rows,
    "util.project_rows_to_simplex": _simplex_rows,
    "util.entropy_bits": _elements,
    "optimize.blahut_arimoto": _ba,
    "regions.cover_leung_frontier": _directions,
}


class Tracer:
    """Wraps the library's layers and keeps every span in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item, counts]
        self._stack = []
        self._restore = []
        self.item = None

    def _wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"macfeedback.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    # Metric names start with a letter: _util is reported as util.
                    wrappers[obj] = self._wrap(f"{layer.lstrip('_')}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "macfeedback" or n.startswith("macfeedback.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for cls_name in CHANNEL_OBJECTS:
            cls = getattr(modules["channel"], cls_name)
            orig = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", orig))
            setattr(cls, "__post_init__", self._wrap("channel.objects", orig))

    def restore(self):
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    def write(self, path, last):
        """Write spans[:last] as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, item, counts) in enumerate(self.spans[:last]):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item,
                                     "counts": counts}) + "\n")


def aggregate(spans, first=0):
    """Per-function table over spans[first:]: calls, total and self time, counts."""
    last = len(spans)
    child_time = {}
    under_frontier = {}
    table = {}
    for sid in range(first, last):
        name, start, end, parent, _, counts = spans[sid]
        dur = end - start
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + dur
            under_frontier[sid] = (under_frontier.get(parent, False)
                                   or spans[parent][0] == "regions.cover_leung_frontier")
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        for key, val in (counts or {}).items():
            row[key] = row.get(key, 0) + val
        if name == "optimize.blahut_arimoto":
            row.setdefault("_iters", []).append(counts["iterations"])
        if name == "regions.batch_pentagon" and under_frontier.get(sid, False):
            clf = table.setdefault("regions.cover_leung_frontier",
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            clf["_rows"] = clf.get("_rows", 0) + counts["rows"]
    for sid in range(first, last):
        table[spans[sid][0]]["self_s"] += (spans[sid][2] - spans[sid][1]
                                           - child_time.get(sid, 0.0))
    ba = table.get("optimize.blahut_arimoto")
    if ba:
        iters = ba.pop("_iters")
        ba["iter_p50"] = statistics.median(iters)
        ba["iter_p90"] = percentile(iters, 90)
    bp = table.get("regions.batch_pentagon")
    if bp and bp["rows"]:
        bp["ns_per_row"] = bp["self_s"] * 1e9 / bp["rows"]
    clf = table.get("regions.cover_leung_frontier")
    if clf:
        rows = clf.pop("_rows", 0)
        if clf.get("directions"):
            clf["rows_per_direction"] = rows / clf["directions"]
    return table


def percentile(values, q):
    """The q-th percentile, linear between order statistics."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


COUNT_KEYS = ("calls", "rows", "elements", "iterations", "unconverged", "directions")


def counts_of(table):
    """The parts of a table that must repeat exactly from run to run."""
    return {fn: {k: v for k, v in row.items() if k in COUNT_KEYS}
            for fn, row in sorted(table.items())}


def parse_importtime(stderr_text):
    """Cumulative import seconds of macfeedback, numpy and scipy from -X importtime.

    The output lists modules children first, indented by depth; a package's
    time is the sum over its outermost entries, so a package imported from
    inside macfeedback still counts once.
    """
    stack = []  # (depth, name, cumulative_us, children)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        stack.append((depth, name.strip(), int(cum), children))

    totals = {"macfeedback": 0, "numpy": 0, "scipy": 0}

    def walk(node, inside):
        _, name, cum, children = node
        pkg = name.split(".")[0]
        if pkg in totals and pkg not in inside:
            totals[pkg] += cum
            inside = inside | {pkg}
        for child in children:
            walk(child, inside)

    for node in stack:
        walk(node, frozenset())
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}
