"""Timing wrappers for the traced benchmark run.

The wrappers live here, in the benchmark, not in linpot: :meth:`Tracer.install`
replaces every public function of linpot's computational modules, wherever a
linpot module holds a reference to it (``tunneling.split_step_evolve``,
``cli.linear_evolve``, ``devices.linear_evolve`` and the package namespace
included), plus ``cli.main``, ``ExperimentConfig.from_file`` and the
``numpy.fft`` / ``scipy.fft`` transforms.  :meth:`Tracer.uninstall` puts the
originals back.

Library calls become spans ``(id, parent id, name, start, end, self time,
attributes)`` kept in memory; a span's self time is its duration minus the
time spent in wrapped calls it made.  FFT calls are too many to keep one by
one (about 10^5 per pass), so they are counted (calls, points, busy time) and
their time is subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import time

import numpy as np

TRACED_MODULES = ("core", "analytic", "oracle", "tunneling", "devices")
MODULE_LAYERS = ("cli", "config") + TRACED_MODULES
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
GRID_SIZES = (1024, 2048, 4096, 8192)

SSE = "oracle.split_step_evolve"

# Per-layer metrics, in the order BENCHMARK.json lists them.  Counts repeat
# exactly for one seed; the rest are times.
COUNT_METRICS = (
    "oracle.state_steps",
    "oracle.snapshots",
    "fft.calls",
    "fft.points",
    "tunneling.solver_reentries",
    "tunneling.steps_to_stationary",
    "analytic.linear_evolve.calls",
)
TIME_METRICS = (
    *(f"oracle.us_per_state_step.n{n}" for n in GRID_SIZES),
    "oracle.us_per_state_step.absorber",
    "oracle.split_step_evolve.busy_s",
    "oracle.us_per_snapshot",
    "fft.busy_s",
    "analytic.linear_evolve.us_per_call",
    "analytic.free_evolve.us_per_call",
    "devices.spin_flip_circuit.us_per_call",
    "devices.psg_compose.us_per_call",
    "config.from_file.us_per_call",
    "core.sample_gaussian.busy_s",
    "core.l2_distance.busy_s",
    *(f"{m}.self_s" for m in MODULE_LAYERS),
    "unassigned_s",
    "traced_wall_s",
)
PER_LAYER_UNITS = {
    **{name: "count" for name in COUNT_METRICS},
    **{name: ("us" if ".us_per_" in name else "s") for name in TIME_METRICS},
    "trace_overhead_s": "s",
}


def _split_step_attrs(bound, result):
    psi, cfg = bound.arguments["psi"], bound.arguments["cfg"]
    absorber = cfg.absorber is not None and cfg.absorber.strength > 0
    return {
        "n": psi.grid.n,
        "steps": cfg.n_steps,
        "absorber": absorber,
        "snapshots": len(result.times),
    }


class Tracer:
    """Installs the wrappers, records spans and FFT counts, and restores the
    originals on :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_busy_s = 0.0
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def reset(self):
        """Drop recorded spans and counts (between passes)."""
        self.spans = []
        self.fft_calls = self.fft_points = 0
        self.fft_busy_s = 0.0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        describe = _split_step_attrs if name == SSE else None
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [next(self._ids), 0.0]
            self._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                attrs = None
                if describe is not None and result is not None:
                    attrs = describe(signature.bind(*args, **kwargs), result)
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else None,
                        name,
                        start,
                        end,
                        end - start - frame[1],
                        attrs,
                    )
                )

        return traced

    def _fft(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                self.fft_calls += 1
                self.fft_points += int(np.size(a))
                self.fft_busy_s += busy
                if parent is not None:
                    parent[1] += busy

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap linpot's public functions and the FFT entry points."""
        replacements = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"linpot.{short}"]
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._span(f"{short}.{name}", obj)
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for name in FFT_NAMES:
                obj = getattr(module, name, None)
                if obj is None:
                    continue
                if id(obj) not in replacements:
                    replacements[id(obj)] = self._fft(obj)
                self._patch(module, name, replacements[id(obj)])
        for module_name, module in list(sys.modules.items()):
            if module_name != "linpot" and not module_name.startswith("linpot."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])

        cli = sys.modules["linpot.cli"]
        self._patch(cli, "main", self._span("cli.main", cli.main))
        config_cls = sys.modules["linpot.config"].ExperimentConfig
        from_file = config_cls.__dict__["from_file"].__func__
        self._patch(
            config_cls, "from_file", staticmethod(self._span("config.from_file", from_file))
        )

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-pass metrics -------------------------------------------------

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass just traced, from its spans."""
        spans = self.spans
        names = {s[0]: s[2] for s in spans}
        inclusive, calls, self_by_module = {}, {}, dict.fromkeys(MODULE_LAYERS, 0.0)
        for _, _, name, start, end, self_s, _ in spans:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_by_module[name.split(".", 1)[0]] += self_s

        def per_call_us(name):
            return 1e6 * inclusive[name] / calls[name] if calls.get(name) else 0.0

        # Split-step calls: with the absorber, snapshot-heavy (more than the
        # initial and final snapshot), or plain stepping at one grid size.
        buckets = {}
        snap_s = snaps_heavy = 0
        steps = snapshots = reentries = tunnel_steps = 0
        for span_id, parent, name, start, end, _, attrs in spans:
            if name != SSE or attrs is None:
                continue
            steps += attrs["steps"]
            snapshots += attrs["snapshots"]
            if parent is not None and names.get(parent) == "tunneling.run_tunneling":
                reentries += 1
                tunnel_steps += attrs["steps"]
            if attrs["absorber"]:
                key = "absorber"
            elif attrs["snapshots"] > 2:
                snap_s += end - start
                snaps_heavy += attrs["snapshots"]
                continue
            else:
                key = f"n{attrs['n']}"
            t, s = buckets.get(key, (0.0, 0))
            buckets[key] = (t + end - start, s + attrs["steps"])

        def us_per_step(key):
            t, s = buckets.get(key, (0.0, 0))
            return 1e6 * t / s if s else 0.0

        assigned = sum(self_by_module.values()) + self.fft_busy_s
        out = {
            "oracle.state_steps": steps,
            "oracle.snapshots": snapshots,
            "fft.calls": self.fft_calls,
            "fft.points": self.fft_points,
            "tunneling.solver_reentries": reentries,
            "tunneling.steps_to_stationary": tunnel_steps,
            "analytic.linear_evolve.calls": calls.get("analytic.linear_evolve", 0),
            **{f"oracle.us_per_state_step.n{n}": us_per_step(f"n{n}") for n in GRID_SIZES},
            "oracle.us_per_state_step.absorber": us_per_step("absorber"),
            "oracle.split_step_evolve.busy_s": inclusive.get(SSE, 0.0),
            "oracle.us_per_snapshot": 1e6 * snap_s / snaps_heavy if snaps_heavy else 0.0,
            "fft.busy_s": self.fft_busy_s,
            "analytic.linear_evolve.us_per_call": per_call_us("analytic.linear_evolve"),
            "analytic.free_evolve.us_per_call": per_call_us("analytic.free_evolve"),
            "devices.spin_flip_circuit.us_per_call": per_call_us("devices.spin_flip_circuit"),
            "devices.psg_compose.us_per_call": per_call_us("devices.psg_compose"),
            "config.from_file.us_per_call": per_call_us("config.from_file"),
            "core.sample_gaussian.busy_s": inclusive.get("core.sample_gaussian", 0.0),
            "core.l2_distance.busy_s": inclusive.get("core.l2_distance", 0.0),
            **{f"{m}.self_s": self_by_module[m] for m in MODULE_LAYERS},
            "unassigned_s": wall_s - assigned,
            "traced_wall_s": wall_s,
        }
        return out


def summarize(per_pass: list) -> tuple:
    """Median of each time metric over the traced passes, and the counts of
    the first pass together with whether every pass repeated them exactly."""
    out = {}
    for name in TIME_METRICS:
        out[name] = statistics.median(p[name] for p in per_pass)
    repeat = True
    for name in COUNT_METRICS:
        values = {p[name] for p in per_pass}
        repeat = repeat and len(values) == 1
        out[name] = per_pass[0][name]
    return out, repeat
