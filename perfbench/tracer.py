"""Span tracer for traced benchmark runs, and the per-layer metrics.

The tracer rebinds every public function of each ``plateflow`` module in
every ``plateflow`` namespace that holds it (``plateflow.nonlinear`` imports
``pad_to_samples`` from ``plateflow.fields``, so both bindings are
replaced), plus a few private CLI helpers and the numpy kernels the solver
calls: ``linalg.solve``/``inv``, ``fft.fft``/``fftn``/``ifftn`` and
``einsum``.  Each call records a span (id, parent id, name, layer, start,
end, value) in memory; the spans are written out once the program ends.
``restore`` puts every original function back.  The source tree is not
changed.

A layer is a ``plateflow`` module.  Its self time is the time of its spans
minus the time of their ``plateflow`` child spans.  Kernel spans are leaves
whose time stays in the enclosing layer's self time; they are also
reported per layer as ``<layer>.einsum_s``, ``.fft_s`` and ``.lapack_s``.

Run as a script, this module is the traced child process::

    python3 perfbench/tracer.py --spans SPANS.json [--memory] -- \
        solve-linear --config bench.cfg --out out

With ``--memory`` it records, instead of timings, the tracemalloc peak of
each call in MEMORY_FUNCTIONS, so that allocation tracking does not slow
the timed spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "plateflow"
MODULES = ("grid", "fields", "norms", "io", "lift", "modes", "halfspace",
           "nonlinear", "oracles", "cli")
# the modules the workloads reach; only `validate` calls into oracles
LAYERS = ("cli", "grid", "fields", "norms", "io", "lift", "modes",
          "halfspace", "nonlinear")
# private helpers wrapped as well, so cli.main's self time excludes them
PRIVATE_FUNCTIONS = {"cli": ("_write_csv", "_plate_samples_csv",
                             "_write_manifest")}
KERNELS = {
    ("numpy", "einsum"): "einsum",
    ("numpy.linalg", "solve"): "lapack",
    ("numpy.linalg", "inv"): "lapack",
    ("numpy.fft", "fft"): "fft",
    ("numpy.fft", "fftn"): "fft",
    ("numpy.fft", "ifftn"): "fft",
}
# (layer, kernel) pairs reported as <layer>.<kernel>_s: those that occur
KERNEL_METRICS = (("modes", "lapack"), ("fields", "einsum"), ("fields", "fft"),
                  ("grid", "fft"), ("norms", "einsum"), ("norms", "lapack"),
                  ("lift", "einsum"), ("lift", "lapack"))
MEMORY_FUNCTIONS = ("modes.solve_linear_full", "nonlinear.compute_nonlinear_terms",
                    "halfspace.boundedness_scan")
COLUMNS = ("id", "parent", "name", "layer", "start", "end", "value")

# every per-layer metric: name -> (unit, which direction is better)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.{kind}_s": ("s", "lower") for layer, kind in KERNEL_METRICS},
    "modes.assembly_s": ("s", "lower"),
    "modes.assembled_modes": ("count", "lower"),
    "modes.lapack_solves": ("count", "lower"),
    "modes.residual_evals": ("count", "lower"),
    "modes.residual_s": ("s", "lower"),
    "modes.solve_peak_mb": ("MB", "lower"),
    "lift.calls": ("count", "lower"),
    "fields.transform_s": ("s", "lower"),
    "fields.fft_calls": ("count", "lower"),
    "fields.fft_bytes_computed": ("B", "lower"),
    "fields.layer_deriv_s": ("s", "lower"),
    "nonlinear.terms_s": ("s", "lower"),
    "nonlinear.compose_s": ("s", "lower"),
    "nonlinear.residual_s": ("s", "lower"),
    "nonlinear.sweeps": ("count", "lower"),
    "nonlinear.terms_peak_mb": ("MB", "lower"),
    "nonlinear.terms_peak_ratio": ("ratio", "lower"),
    "norms.total_s": ("s", "lower"),
    "norms.lapack_solves": ("count", "lower"),
    "grid.cheb_eval_s": ("s", "lower"),
    "halfspace.scan_s": ("s", "lower"),
    "halfspace.points": ("count", "lower"),
    "halfspace.mpts_per_s": ("Mpt/s", "higher"),
    "halfspace.scan_peak_mb": ("MB", "lower"),
    "io.read_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.bytes_read": ("B", "lower"),
    "io.bytes_written": ("B", "lower"),
    "cli.config_s": ("s", "lower"),
    "cli.forcing_s": ("s", "lower"),
    "cli.csv_s": ("s", "lower"),
    "cli.manifest_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.outside_s": ("s", "lower"),
    "trace.layer_share": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}


def _file_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _kernel_bytes(args, kwargs, result):
    # computed bytes: the input operand and the result, not measured traffic
    return args[0].nbytes + result.nbytes


# span value per function: what the layer counted
ANNOTATIONS = {
    "io.read_field": _file_size,
    "io.read_field_json": _file_size,
    "io.write_field": _file_size,
    "io.write_field_json": _file_size,
    "halfspace.boundedness_scan": lambda a, k, r: r.points_scanned,
    "nonlinear.compute_nonlinear_terms": lambda a, k, r: a[0].coeffs.nbytes,
    **{f"numpy.fft.{attr}": _kernel_bytes for attr in ("fft", "fftn", "ifftn")},
}


class Tracer:
    """Records spans around wrapped functions; a context manager.

    memory=True records each MEMORY_FUNCTIONS call's tracemalloc peak
    (bytes) in place of its value and wraps nothing else.
    """

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str, layer: str):
        annotate = ANNOTATIONS.get(name)
        track_memory = self.memory and name in MEMORY_FUNCTIONS
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [len(spans), stack[-1][0] if stack else None, name, layer,
                    clock(), None, None]
            spans.append(span)
            stack.append(span)
            # a nested call of a tracked function reads no peak of its own
            tracking = track_memory and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracking:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[5] = clock()
                stack.pop()
            if annotate is not None and not self.memory:
                span[6] = annotate(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(name, layer, function) for everything the tracer wraps."""
        if not self.memory:
            for (module_name, attr), kind in KERNELS.items():
                module = importlib.import_module(module_name)
                yield f"{module_name}.{attr}", f"numpy.{kind}", getattr(module, attr)
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and not n.startswith("_")
                     and obj.__module__ == module.__name__]
            names += PRIVATE_FUNCTIONS.get(short, ())
            for attr in names:
                qual = f"{short}.{attr}"
                if self.memory and qual not in MEMORY_FUNCTIONS:
                    continue
                yield qual, short, getattr(module, attr)

    def install(self):
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name, layer, fn in list(self._targets()):
            traced = self.wrap(fn, name, layer)
            if layer.startswith("numpy."):
                module_name, _, attr = name.rpartition(".")
                self._rebind(importlib.import_module(module_name), attr, traced)
                continue
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        self._rebind(ns, attr, traced)
        return self

    def _rebind(self, namespace, attr, new):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def restore(self):
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path, **extra):
        doc = {"run_id": self.run_id, "memory": self.memory,
               "columns": list(COLUMNS), "spans": self.spans, **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---- per-layer metrics -------------------------------------------------------------

TRANSFORMS = ("fields.forward_transform", "fields.inverse_transform",
              "fields.physical_samples", "fields.forward_transform_plate",
              "fields.inverse_transform_plate", "fields.pad_to_samples",
              "fields.samples_to_truncated")


class SpanTree:
    """Index over a list of spans in COLUMNS order."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}

    def ancestors(self, span):
        parent = span[1]
        while parent is not None:
            span = self.by_id[parent]
            yield span
            parent = span[1]

    def inclusive(self, names) -> float:
        """Time in spans named in `names`, counting nested ones once."""
        names = set(names)
        return sum(s[5] - s[4] for s in self.spans if s[2] in names
                   and not any(a[2] in names for a in self.ancestors(s)))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def values(self, name: str) -> list:
        return [s[6] for s in self.spans if s[2] == name]

    def layer_times(self):
        """Self time per layer, and kernel time/count/bytes per (layer, kind)."""
        self_s = defaultdict(float)
        kernel_s = defaultdict(float)
        kernel_n = defaultdict(int)
        kernel_bytes = defaultdict(int)
        child_s = defaultdict(float)
        for s in self.spans:
            if s[3].startswith("numpy."):
                continue
            if s[1] is not None:
                child_s[s[1]] += s[5] - s[4]
        for s in self.spans:
            dur = s[5] - s[4]
            if s[3].startswith("numpy."):
                owner = self.by_id.get(s[1])
                if owner is None or owner[3].startswith("numpy."):
                    continue  # outside the program, or inside another kernel
                key = (owner[3], s[3][len("numpy."):])
                kernel_s[key] += dur
                kernel_n[key] += 1
                kernel_bytes[key] += s[6] or 0
            else:
                self_s[s[3]] += dur - child_s[s[0]]
        return self_s, kernel_s, kernel_n, kernel_bytes


def layer_metrics(time_doc: dict, memory_doc: dict, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation and one memory invocation.

    traced_wall_s is the traced child's wall time; untraced_wall_s is the
    median wall time of the untraced invocations of the same run.
    """
    tree = SpanTree(time_doc["spans"])
    self_s, kernel_s, kernel_n, kernel_bytes = tree.layer_times()
    mem = SpanTree(memory_doc["spans"])
    mb = 1.0 / (1 << 20)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer, kind in KERNEL_METRICS:
        out[f"{layer}.{kind}_s"] = kernel_s.get((layer, kind), 0.0)

    out["modes.assembly_s"] = tree.inclusive(["modes.mode_system_matrix"])
    out["modes.assembled_modes"] = tree.count("modes.mode_system_matrix")
    out["modes.lapack_solves"] = kernel_n.get(("modes", "lapack"), 0)
    out["modes.residual_evals"] = tree.count("modes.linear_residuals")
    out["modes.residual_s"] = tree.inclusive(["modes.linear_residuals"])
    out["modes.solve_peak_mb"] = max(mem.values("modes.solve_linear_full"),
                                     default=0) * mb

    out["lift.calls"] = tree.count("lift.lift_divergence")

    out["fields.transform_s"] = tree.inclusive(TRANSFORMS)
    out["fields.fft_calls"] = kernel_n.get(("fields", "fft"), 0)
    out["fields.fft_bytes_computed"] = kernel_bytes.get(("fields", "fft"), 0)
    out["fields.layer_deriv_s"] = tree.inclusive(["fields.dx3"])

    terms_peak = max(mem.values("nonlinear.compute_nonlinear_terms"), default=0)
    velocity_bytes = max(tree.values("nonlinear.compute_nonlinear_terms"),
                         default=0)
    out["nonlinear.terms_s"] = tree.inclusive(["nonlinear.compute_nonlinear_terms"])
    out["nonlinear.compose_s"] = tree.inclusive(["nonlinear.compose_forcing"])
    out["nonlinear.residual_s"] = tree.inclusive(["nonlinear.nonlinear_residual"])
    out["nonlinear.sweeps"] = sum(
        1 for s in tree.spans if s[2] == "modes.solve_linear_full"
        and s[1] is not None and tree.by_id[s[1]][2] == "nonlinear.picard_solve")
    out["nonlinear.terms_peak_mb"] = terms_peak * mb
    out["nonlinear.terms_peak_ratio"] = (terms_peak / velocity_bytes
                                         if velocity_bytes else 0.0)

    norms_names = [s[2] for s in tree.spans if s[3] == "norms"]
    out["norms.total_s"] = tree.inclusive(norms_names)
    out["norms.lapack_solves"] = kernel_n.get(("norms", "lapack"), 0)

    out["grid.cheb_eval_s"] = tree.inclusive(["grid.cheb_eval"])

    scan_s = tree.inclusive(["halfspace.boundedness_scan"])
    points = sum(tree.values("halfspace.boundedness_scan"))
    out["halfspace.scan_s"] = scan_s
    out["halfspace.points"] = points
    out["halfspace.mpts_per_s"] = points / scan_s / 1e6 if scan_s > 0 else 0.0
    out["halfspace.scan_peak_mb"] = max(mem.values("halfspace.boundedness_scan"),
                                        default=0) * mb

    reads = ("io.read_field", "io.read_field_json")
    writes = ("io.write_field", "io.write_field_json")
    out["io.read_s"] = tree.inclusive(reads)
    out["io.write_s"] = tree.inclusive(writes)
    out["io.bytes_read"] = sum(v for n in reads for v in tree.values(n))
    out["io.bytes_written"] = sum(v for n in writes for v in tree.values(n))

    out["cli.config_s"] = tree.inclusive(["cli.load_config"])
    out["cli.forcing_s"] = tree.inclusive(["cli.parse_forcing"])
    out["cli.csv_s"] = tree.inclusive(["cli._write_csv", "cli._plate_samples_csv"])
    out["cli.manifest_s"] = tree.inclusive(["cli._write_manifest"])

    main_s = tree.inclusive(["cli.main"])
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.outside_s"] = traced_wall_s - main_s
    out["trace.layer_share"] = sum(self_s.values()) / traced_wall_s
    out["trace.spans"] = len(tree.spans)
    return out


# ---- traced child process ----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id, memory=args.memory)
    with tracer:
        from plateflow import cli
        code = cli.main(cli_args)
    tracer.write(args.spans, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
