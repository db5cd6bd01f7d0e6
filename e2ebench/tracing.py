"""Spans around the package's public functions, installed from outside.

The package imports functions by name (``svd_factor`` is bound in ``pinv``,
``reverse_order``, ``canonical_forms`` and the package itself), so a wrapper
replaces the original at every binding in every loaded ``cstarpinv`` module.
``AdjointableOp`` is traced through its ``__init__``, which every
construction runs.  Spans (name, start, end, parent) are kept in memory and
written out once at the end; self times are computed from them afterwards.

``algebra.elem_mul`` is only counted: it is called tens of thousands of
times per second, and a span per call would cost more than the call itself.
Its time shows in the self time of its caller.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

MAX_SWEEPS = 64  # the package's Jacobi sweep limit; a call reaching it did not converge
CHECK_NAMES = ("reverse_order.check_thm21", "reverse_order.check_thm22", "reverse_order.check_corollary")


def _kernel_stats(tracer, args, result):
    n = args[0].shape[1]
    tracer.extra["kernels.orthogonalize_columns.sweeps"] += result
    tracer.extra["kernels.orthogonalize_columns.column_pairs"] += result * n * (n - 1) // 2
    tracer.extra["kernels.orthogonalize_columns.unconverged"] += result >= MAX_SWEEPS
    tracer.kernel_shapes.append(args[0].shape)


def _svd_stats(tracer, args, result):
    rows, cols = args[0].shape
    tracer.extra["pinv.svd_factor.elements"] += rows * cols


def _rank_stats(tracer, args, result):
    tracer.extra["pinv.rank_decision.flagged"] += bool(result[2])


def _cert_stats(tracer, args, result):
    tracer.extra["reverse_order.check_corollary.flagged"] += bool(result.boundary_flag)


def _size_stats(name):
    def stats(tracer, args, result):
        tracer.extra[name] += os.path.getsize(args[0])

    return stats


def _text_stats(tracer, args, result):
    tracer.extra["fileio.dumps_canonical.bytes"] += len(result.encode("utf-8"))


# (module, attribute, span name, stats hook run after the call)
SPANS = (
    ("cstarpinv._kernels", "orthogonalize_columns", "kernels.orthogonalize_columns", _kernel_stats),
    ("cstarpinv.pinv", "svd_factor", "pinv.svd_factor", _svd_stats),
    ("cstarpinv.pinv", "pinv_matrix", "pinv.pinv_matrix", None),
    ("cstarpinv.pinv", "moore_penrose", "pinv.moore_penrose", None),
    ("cstarpinv.pinv", "penrose_residuals", "pinv.penrose_residuals", None),
    ("cstarpinv.pinv", "rank_decision", "pinv.rank_decision", _rank_stats),
    ("cstarpinv.operators", "unflatten", "operators.unflatten", None),
    ("cstarpinv.operators", "compose", "operators.compose", None),
    ("cstarpinv.operators", "adjoint_op", "operators.adjoint_op", None),
    ("cstarpinv.sampling", "random_operator", "sampling.random_operator", None),
    ("cstarpinv.sampling", "random_operator_with_rank", "sampling.random_operator_with_rank", None),
    ("cstarpinv.reverse_order", "gen_instance", "reverse_order.gen_instance", None),
    ("cstarpinv.reverse_order", "check_thm21", "reverse_order.check_thm21", None),
    ("cstarpinv.reverse_order", "check_thm22", "reverse_order.check_thm22", None),
    ("cstarpinv.reverse_order", "check_corollary", "reverse_order.check_corollary", _cert_stats),
    ("cstarpinv.reverse_order", "block_conditions", "reverse_order.block_conditions", None),
    ("cstarpinv.fileio", "read_operator_file", "fileio.read_operator_file",
     _size_stats("fileio.read_operator_file.bytes")),
    ("cstarpinv.fileio", "write_operator_file", "fileio.write_operator_file",
     _size_stats("fileio.write_operator_file.bytes")),
    ("cstarpinv.fileio", "dumps_canonical", "fileio.dumps_canonical", _text_stats),
    ("cstarpinv.fileio", "file_digest", "fileio.file_digest", None),
    ("cstarpinv.cli", "main", "cli.main", None),
)
COUNTED = (("cstarpinv.algebra", "elem_mul", "algebra.elem_mul"),)
CONSTRUCTED = (("cstarpinv.operators", "AdjointableOp", "operators.AdjointableOp"),)

# Per-layer metrics: name -> (unit, where the value comes from).
CALLS = "calls"
SELF = "self_ms"
INCLUSIVE = "ms"
EXTRA = "extra"
LAYER_METRICS = {
    "kernels.orthogonalize_columns.calls": ("count", CALLS),
    "kernels.orthogonalize_columns.self_ms": ("ms", SELF),
    "kernels.orthogonalize_columns.sweeps": ("count", EXTRA),
    "kernels.orthogonalize_columns.column_pairs": ("count", EXTRA),
    "kernels.orthogonalize_columns.unconverged": ("count", EXTRA),
    "pinv.svd_factor.calls": ("count", CALLS),
    "pinv.svd_factor.self_ms": ("ms", SELF),
    "pinv.svd_factor.elements": ("count", EXTRA),
    "pinv.pinv_matrix.calls": ("count", CALLS),
    "pinv.moore_penrose.self_ms": ("ms", SELF),
    "pinv.penrose_residuals.self_ms": ("ms", SELF),
    "pinv.rank_decision.flagged": ("count", EXTRA),
    "operators.AdjointableOp.calls": ("count", CALLS),
    "operators.AdjointableOp.self_ms": ("ms", SELF),
    "operators.unflatten.calls": ("count", CALLS),
    "operators.unflatten.self_ms": ("ms", SELF),
    "operators.compose.calls": ("count", CALLS),
    "operators.compose.self_ms": ("ms", SELF),
    "operators.adjoint_op.calls": ("count", CALLS),
    "operators.adjoint_op.self_ms": ("ms", SELF),
    "algebra.elem_mul.calls": ("count", CALLS),
    "sampling.random_operator.calls": ("count", CALLS),
    "sampling.random_operator.self_ms": ("ms", SELF),
    "sampling.random_operator_with_rank.calls": ("count", CALLS),
    "sampling.random_operator_with_rank.self_ms": ("ms", SELF),
    "reverse_order.gen_instance.calls": ("count", CALLS),
    "reverse_order.gen_instance.self_ms": ("ms", SELF),
    "reverse_order.gen_instance.check_calls": ("count", EXTRA),
    "reverse_order.check_corollary.calls": ("count", CALLS),
    "reverse_order.check_corollary.self_ms": ("ms", SELF),
    "reverse_order.check_corollary.flagged": ("count", EXTRA),
    "reverse_order.block_conditions.calls": ("count", CALLS),
    "reverse_order.block_conditions.self_ms": ("ms", SELF),
    "fileio.read_operator_file.calls": ("count", CALLS),
    "fileio.read_operator_file.self_ms": ("ms", SELF),
    "fileio.read_operator_file.bytes": ("bytes", EXTRA),
    "fileio.write_operator_file.calls": ("count", CALLS),
    "fileio.write_operator_file.self_ms": ("ms", SELF),
    "fileio.write_operator_file.bytes": ("bytes", EXTRA),
    "fileio.dumps_canonical.self_ms": ("ms", SELF),
    "fileio.dumps_canonical.bytes": ("bytes", EXTRA),
    "fileio.file_digest.self_ms": ("ms", SELF),
    "cli.main.calls": ("count", CALLS),
    "cli.main.ms": ("ms", INCLUSIVE),
}


class Tracer:
    """Collects spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.extra = defaultdict(int)
        self.kernel_shapes = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _span_wrapper(self, name, fn, stats):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if stats is not None:
                stats(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cstarpinv" or mod_name.startswith("cstarpinv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for mod_name, attr, name, stats in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._span_wrapper(name, original, stats))
        for mod_name, attr, name in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._count_wrapper(name, original))
        for mod_name, attr, name in CONSTRUCTED:
            cls = getattr(sys.modules[mod_name], attr)
            self._patched.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._span_wrapper(name, cls.__init__, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _per_span(self):
        """Calls, self and inclusive milliseconds per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_ms, incl_ms = Counter(self.counts), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child_time[i]) * 1e3
            incl_ms[name] += (end - start) * 1e3
        return calls, self_ms, incl_ms

    def _generation_check_calls(self):
        """Check calls made inside instance generation."""
        total = 0
        for name, _, _, parent in self.spans:
            if name not in CHECK_NAMES:
                continue
            while parent >= 0:
                if self.spans[parent][0] == "reverse_order.gen_instance":
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def metrics(self):
        calls, self_ms, incl_ms = self._per_span()
        extra = dict(self.extra)
        extra["reverse_order.gen_instance.check_calls"] = self._generation_check_calls()
        per_span = {CALLS: calls, SELF: self_ms, INCLUSIVE: incl_ms}
        out = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            if source == EXTRA:
                value = extra.get(metric, 0)
            else:
                value = per_span[source][metric.rsplit(".", 1)[0]]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as JSON lines ``[name, start_ms, end_ms, parent]``, times from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, (start - origin) * 1e3, (end - origin) * 1e3, parent]))
                fh.write("\n")
