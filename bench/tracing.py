"""Spans and counters for the benchmark's traced run.

The package itself records nothing. `Instrumentation` wraps public
qiul functions at the module attributes through which the CLI and the
pipeline call them (their import sites), so a call made through
`qiul.pipeline.save_stack` is traced while `qiul.dpsh.save_stack`
itself is left alone. Removing the instrumentation restores the
original attributes, so untraced and traced cycles alternate in one
process.

Each span records its name, start, end, parent span and operation id.
A span's self time is its duration minus the durations of its direct
children (calls are sequential, so children never overlap), and the
self times of all spans of one operation add up to the root span, the
traced `cli.main` call. Byte counts are computed from file sizes after
the operation has returned, so the `stat` calls never fall inside a
span.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli.main"

# (module, attribute, layer name): timed spans
SPAN_SITES = [
    ("qiul.cli", "load_config", "core.load_config"),
    ("qiul.cli", "simulate_edge", "pipeline.simulate_edge"),
    ("qiul.cli", "analyze_stack", "pipeline.analyze_stack"),
    ("qiul.cli", "theory_sweep_rows", "spreads.theory_sweep_rows"),
    ("qiul.cli", "write_sweep_csv", "spreads.write_sweep_csv"),
    ("qiul.cli", "fit_double_slit", "fitting.fit_double_slit"),
    ("qiul.cli", "read_profile_csv", "imaging.read_profile_csv"),
    ("qiul.cli", "write_json", "pipeline.write_json"),
    ("qiul.pipeline", "synthesize_stack", "dpsh.synthesize_stack"),
    ("qiul.pipeline", "demodulate", "dpsh.demodulate"),
    ("qiul.pipeline", "select_max_row", "dpsh.select_max_row"),
    ("qiul.pipeline", "fit_edge_profiles", "fitting.fit_edge_profiles"),
    ("qiul.pipeline", "write_profile_csv", "imaging.write_profile_csv"),
    ("qiul.pipeline", "write_json", "pipeline.write_json"),
    ("qiul.pipeline", "half_width_1e", "spreads.extract"),
    ("qiul.pipeline", "knife_edge_width_2476", "spreads.extract"),
    ("qiul.pipeline", "lsf_from_esf", "spreads.extract"),
    ("qiul.pipeline", "spread_g_esf_numeric", "spreads.spread_g_esf_numeric"),
    ("qiul.spreads", "spread_g_esf_numeric", "spreads.spread_g_esf_numeric"),
    ("qiul.fitting", "spread_g_esf_numeric", "spreads.spread_g_esf_numeric"),
]

# spans whose byte count is the size of the file named by the argument
FILE_SITES = [("qiul.pipeline", "write_image_csv", "dpsh.write_image_csv")]

# spans whose byte count is a manifest plus every file it names
SAVE_SITE = ("qiul.pipeline", "save_stack", "dpsh.save_stack")
LOAD_SITE = ("qiul.pipeline", "load_stack", "dpsh.load_stack")

FIT_SITE = ("qiul.fitting", "least_squares_fit", "fitting.least_squares_fit")

# plain call counters (a span per call would cost more than the call)
COUNT_SITES = [
    (module, "validate_params", "core.validate_params")
    for module in ("qiul.core", "qiul.biphoton", "qiul.imaging", "qiul.spreads",
                   "qiul.fitting", "qiul.pipeline")
]

# samples evaluated by the adaptive-grid spread
POINT_SITE = ("qiul.spreads", "g_esf_derivative", "imaging.g_esf_derivative")


def manifest_references(manifest_path: Path) -> list[Path]:
    """Every file a stack manifest names by a relative path, whatever
    the stack layout: each string value whose last component has a
    suffix."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    refs = []

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str) and Path(node).suffix:
            refs.append(manifest_path.parent / node)

    walk(manifest)
    return refs


class Tracer:
    """In-memory spans and counters; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._pending: list[tuple[str, Path, bool]] = []  # (layer, path, is manifest)

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def note_file(self, layer: str, path, manifest: bool = False) -> None:
        self._pending.append((layer, Path(path), manifest))

    def end_op(self) -> None:
        """Resolve the byte counts of the operation that just returned;
        its files still exist."""
        for layer, path, manifest in self._pending:
            files = [path, *manifest_references(path)] if manifest else [path]
            self.counts[f"{layer}.bytes"] += sum(f.stat().st_size for f in files if f.is_file())
        self._pending.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer name: busy seconds, self seconds and calls, summed
        over every traced operation."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["busy"] += end - start
            entry["self"] += end - start - child_time[i]
            entry["calls"] += 1
        return dict(out)


class Instrumentation:
    """Install and remove the wrappers listed above on one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:  # layer absent in this version: reported as idle
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        tracer = self.tracer

        def span(name):
            def make(fn):
                return lambda *a, **k: tracer.call(name, fn, a, k)
            return make

        def file_span(name):
            def make(fn):
                def wrapped(image, path, *a, **k):
                    result = tracer.call(name, fn, (image, path) + a, k)
                    tracer.note_file(name, path)
                    return result
                return wrapped
            return make

        def save_span(name):
            def make(fn):
                def wrapped(*a, **k):
                    manifest = tracer.call(name, fn, a, k)
                    tracer.note_file(name, manifest, manifest=True)
                    return manifest
                return wrapped
            return make

        def load_span(name):
            def make(fn):
                def wrapped(manifest_path, *a, **k):
                    tracer.note_file(name, manifest_path, manifest=True)
                    return tracer.call(name, fn, (manifest_path,) + a, k)
                return wrapped
            return make

        def fit_span(name):
            def make(fn):
                def wrapped(model, *a, **k):
                    def counted(x, p):
                        tracer.counts[f"{name}.model_evals"] += 1
                        return model(x, p)
                    result = tracer.call(name, fn, (counted,) + a, k)
                    tracer.counts[f"{name}.iterations"] += result.iterations
                    return result
                return wrapped
            return make

        def counter(name):
            def make(fn):
                def wrapped(*a, **k):
                    tracer.counts[f"{name}.calls"] += 1
                    return fn(*a, **k)
                return wrapped
            return make

        def points(name):
            def make(fn):
                def wrapped(params, setup, x_c, *a, **k):
                    tracer.counts[f"{name}.points"] += getattr(x_c, "size", 1)
                    return fn(params, setup, x_c, *a, **k)
                return wrapped
            return make

        for module, attr, name in SPAN_SITES:
            self._patch(module, attr, span(name))
        for module, attr, name in FILE_SITES:
            self._patch(module, attr, file_span(name))
        self._patch(*SAVE_SITE[:2], save_span(SAVE_SITE[2]))
        self._patch(*LOAD_SITE[:2], load_span(LOAD_SITE[2]))
        self._patch(*FIT_SITE[:2], fit_span(FIT_SITE[2]))
        for module, attr, name in COUNT_SITES:
            self._patch(module, attr, counter(name))
        self._patch(*POINT_SITE[:2], points(POINT_SITE[2]))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
