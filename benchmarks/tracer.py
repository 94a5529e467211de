"""Spans and counters around hermscale's public functions, from outside.

The tracer replaces each traced function in every ``hermscale`` namespace
that bound it (``from .x import f`` copies the name, so patching the
defining module alone would miss callers), records one span per call in
memory, and puts the originals back on ``restore``.  A function that a later
version renames or makes private is reported as absent, not as an error.

A span is ``[name, start, end, parent index]``; a layer's self time is the
summed duration of its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (defining module, attribute).  The layer is the name's prefix.
TARGETS = {
    "basis.eval_hermite_functions": ("basis", "eval_hermite_functions"),
    "basis.eval_scaled_basis": ("basis", "eval_scaled_basis"),
    "basis.synthesize": ("basis", "synthesize"),
    "quadrature.compute_grid": ("quadrature", "compute_grid"),
    "quadrature.analysis": ("quadrature", "analysis"),
    "quadrature.synthesis": ("quadrature", "synthesis"),
    "fourier.bessel_k": ("fourier", "bessel_k"),
    "fourier.tail_norm": ("fourier", "tail_norm"),
    "fourier.catalog_entry": ("fourier", "catalog_entry"),
    "integrate.adaptive_quad": ("_integrate", "adaptive_quad"),
    "operators.error_breakdown": ("operators", "error_breakdown"),
    "operators.project": ("operators", "project"),
    "operators.projection_error": ("operators", "projection_error"),
    "operators.residual_l2": ("operators", "residual_l2"),
    "operators.transition_point": ("operators", "transition_point"),
    "galerkin.manufactured_problem": ("galerkin", "manufactured_problem"),
    "galerkin.solve": ("galerkin", "solve"),
    "galerkin.solution_error": ("galerkin", "solution_error"),
    "galerkin.discrete_solution_error": ("galerkin", "discrete_solution_error"),
    "cli.run_sweep": ("cli", "run_sweep"),
    "cli.detect_slope_change": ("cli", "detect_slope_change"),
}

# Spans recorded through the tail oracles of the entries that the wrapped
# catalog_entry returns.
TAIL_SPANS = ("fourier.spatial_tail", "fourier.frequency_tail")

# Metrics other than "<span>.calls", "<span>.s" and "<layer>.self_s", with
# the spans they are counted in; the metric is absent when none is traced.
DERIVED = {
    "basis.values": ("basis.eval_hermite_functions",),
    "basis.max_matrix_mb": ("basis.eval_hermite_functions",),
    "basis.rescaled_batches": ("basis.eval_hermite_functions",),
    "quadrature.compute_grid.distinct": ("quadrature.compute_grid",),
    "quadrature.transforms.calls": ("quadrature.analysis", "quadrature.synthesis"),
    "quadrature.transforms.s": ("quadrature.analysis", "quadrature.synthesis"),
    "integrate.abscissae": ("integrate.adaptive_quad",),
    "integrate.values": ("integrate.adaptive_quad",),
    "integrate.panels_evaluated": ("integrate.adaptive_quad",),
    "integrate.panel_yield": ("integrate.adaptive_quad",),
    "integrate.accuracy_errors": ("integrate.adaptive_quad",),
    "cli.points": ("cli.run_sweep",),
    "cli.flagged": ("cli.run_sweep",),
}

# Counts that must be identical on two traced passes over the same inputs.
EXACT_REPEAT = ("fourier.bessel_k.calls", "integrate.abscissae", "basis.values",
                "quadrature.compute_grid.calls")

# Above this max(x**2)/2 eval_hermite_functions takes its rescaled branch.
RESCALE_CUTOFF = 600.0
# Abscissae per panel of the (G7, K15) Gauss-Kronrod rule of adaptive_quad.
KRONROD_POINTS = 15


class Tracer:
    """Install with ``install()``, run the workload, ``restore()``, then read
    ``metrics()``.  One tracer records one pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.grid_sizes = set()
        self.installed = set()
        self._patched = []

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "hermscale" or name.startswith("hermscale.")}
        for span, (module, attr) in TARGETS.items():
            original = getattr(modules.get(f"hermscale.{module}"), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(span, original)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
            self.installed.add(span)
            if span == "fourier.catalog_entry":
                self.installed.update(TAIL_SPANS)

    def restore(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                spans[index][2] = clock()
                stack.pop()
            return result if after is None else after(result)
        return wrapper

    def _wrap(self, span, fn):
        hooks = {
            "basis.eval_hermite_functions": dict(before=self._count_basis),
            "quadrature.compute_grid": dict(before=self._count_grid),
            "fourier.catalog_entry": dict(after=self._wrap_tails),
            "integrate.adaptive_quad": dict(before=self._wrap_integrand,
                                            on_error=self._count_quad_error),
            "cli.run_sweep": dict(after=self._count_records),
        }
        return self._span(span, fn, **hooks.get(span, {}))

    def _count_basis(self, args, kwargs):
        def count(x, n_max):
            x = np.asarray(x, dtype=float)
            elements = (int(n_max) + 1) * x.size
            self.counts["basis.values"] += elements
            self.counts["basis.max_bytes"] = max(self.counts["basis.max_bytes"],
                                                 8 * elements)
            if x.size and float(np.max(x * x)) / 2.0 > RESCALE_CUTOFF:
                self.counts["basis.rescaled_batches"] += 1
        count(*args, **kwargs)
        return args, kwargs

    def _count_grid(self, args, kwargs):
        def count(n_max):
            self.grid_sizes.add(int(n_max))
        count(*args, **kwargs)
        return args, kwargs

    def _wrap_tails(self, entry):
        try:
            return dataclasses.replace(
                entry,
                spatial_tail=self._span("fourier.spatial_tail", entry.spatial_tail),
                frequency_tail=self._span("fourier.frequency_tail",
                                          entry.frequency_tail))
        except (TypeError, AttributeError):
            return entry

    def _wrap_integrand(self, args, kwargs):
        counts = self.counts
        first = True

        def counted(f):
            @functools.wraps(f)
            def integrand(x):
                nonlocal first
                y = f(x)
                panels = np.size(x) // KRONROD_POINTS
                counts["integrate.abscissae"] += np.size(x)
                counts["integrate.values"] += np.size(y)
                counts["integrate.panels_evaluated"] += panels
                # Bisection: each panel after the first batch replaces half a
                # parent, so it adds one half panel to the kept total.
                counts["integrate.half_panels_kept"] += 2 * panels if first else panels
                first = False
                return y
            return integrand

        if args:
            args = (counted(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=counted(kwargs["f"]))
        return args, kwargs

    def _count_quad_error(self, exc):
        if type(exc).__name__ == "AccuracyError":
            self.counts["integrate.accuracy_errors"] += 1

    def _count_records(self, records):
        self.counts["cli.points"] += len(records)
        self.counts["cli.flagged"] += sum(bool(getattr(r, "flag", "")) for r in records)
        return records

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric this tracer can name; absent ones map to None."""
        calls, seconds, self_s = Counter(), defaultdict(float), defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), cover in zip(self.spans, covered):
            calls[name] += 1
            seconds[name] += end - start
            self_s[name.split(".")[0]] += end - start - cover

        out = {}
        for span in (*TARGETS, *TAIL_SPANS):
            traced = span in self.installed
            out[f"{span}.calls"] = calls[span] if traced else None
            out[f"{span}.s"] = seconds[span] if traced else None
        for layer in {span.split(".")[0] for span in TARGETS}:
            traced = any(span.startswith(layer + ".") for span in self.installed)
            out[f"{layer}.self_s"] = self_s[layer] if traced else None

        c = self.counts
        evaluated = c["integrate.panels_evaluated"]
        derived = {
            "basis.values": c["basis.values"],
            "basis.max_matrix_mb": c["basis.max_bytes"] / 1e6,
            "basis.rescaled_batches": c["basis.rescaled_batches"],
            "quadrature.compute_grid.distinct": len(self.grid_sizes),
            "quadrature.transforms.calls": (calls["quadrature.analysis"]
                                            + calls["quadrature.synthesis"]),
            "quadrature.transforms.s": (seconds["quadrature.analysis"]
                                        + seconds["quadrature.synthesis"]),
            "integrate.abscissae": c["integrate.abscissae"],
            "integrate.values": c["integrate.values"],
            "integrate.panels_evaluated": evaluated,
            "integrate.panel_yield": (c["integrate.half_panels_kept"] / (2.0 * evaluated)
                                      if evaluated else 0.0),
            "integrate.accuracy_errors": c["integrate.accuracy_errors"],
            "cli.points": c["cli.points"],
            "cli.flagged": c["cli.flagged"],
        }
        for name, value in derived.items():
            out[name] = value if self.installed.intersection(DERIVED[name]) else None
        return out

    def write_spans(self, path):
        """Spans as JSON lines: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
