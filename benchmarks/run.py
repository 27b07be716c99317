"""linpot benchmark: run one seeded workload for a fixed time and report.

    python3 benchmarks/run.py --workload linear-batch --seed 1 --seconds 25 --trace 0

Run from anywhere in a checkout; linpot is imported from the checkout's own
``src/`` and from nowhere else.  One process, one client, closed loop: each
pass starts when the previous one has been verified.  BLAS/OpenMP pools are
pinned to one thread.

Order of work: time ``import linpot`` and the workload's setup several
times, run one untimed warm-up pass (fills FFT plan caches and cached grid
properties), then run verified passes until ``--seconds`` have elapsed.
With ``--trace 1`` every other pass runs under the timing wrappers of
``tracing.py``; the spans are written to ``.bench_out/`` at the end.

The shared machines this runs on change speed by up to 1.6x from one tenth
of a second to the next, and by up to 2x over an hour, for every kind of
work at once.  So the gated times are normalized by a fixed numpy reference
kernel of about 10 ms, run alongside the measured work: every
``SAMPLE_EVERY`` seconds during a pass (from a ``SIGALRM`` handler, in the
main thread; its time is taken out of the pass), and right after each
import and setup.  A normalized time is in seconds on a machine where the
kernel takes ``REF_S``.  Raw times are in the report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
IMPORT_REPEATS = 40
SETUP_REPEATS = 9
# Not used while the benchmark was tuned; check claims on it too.
HELD_OUT_SEED = 7919
MAX_LISTED_FAILURES = 10
# Nominal duration of the reference kernel: normalized times are seconds on a
# machine that runs it in exactly this long (about what the 2-core x86-64
# box the baseline comes from takes).
REF_S = 0.01
SAMPLE_EVERY = 0.2


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_linpot():
    """Import linpot from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import linpot

    if Path(linpot.__file__).resolve().parent != (SRC / "linpot").resolve():
        raise ImportError(f"linpot imported from {linpot.__file__}, not from {SRC}")
    return linpot


def _linpot_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "linpot" or k.startswith("linpot.")}


def reimport_linpot() -> float:
    """Seconds that ``import linpot`` takes with numpy, scipy and the standard
    library already loaded: linpot's own modules are dropped, imported afresh,
    and the ones the benchmark holds are put back."""
    held = _linpot_modules()
    for name in held:
        del sys.modules[name]
    gc.disable()
    try:
        start = time.perf_counter()
        importlib.import_module("linpot")
        return time.perf_counter() - start
    finally:
        gc.enable()
        for name in _linpot_modules():
            del sys.modules[name]
        sys.modules.update(held)


def make_reference():
    """The reference kernel: FFT pairs, elementwise products and reductions on
    complex arrays of 2048 and 8192 points, the kind of work linpot does.  It
    binds the numpy transforms at creation, so the trace wrappers never see it."""
    import numpy as np
    from numpy.fft import fft, ifft

    rng = np.random.default_rng(0)
    cases = tuple(
        (rng.standard_normal(n) + 1j * rng.standard_normal(n),
         np.exp(1j * rng.standard_normal(n)), reps)
        for n, reps in ((2048, 45), (8192, 12))
    )

    def reference() -> float:
        start = time.perf_counter()
        for a, phase, reps in cases:
            for _ in range(reps):
                a = ifft(fft(a) * phase) * phase
                float(np.sum(np.abs(a) ** 2))
        return time.perf_counter() - start

    reference()
    return reference


def paired(op, repeats, reference) -> tuple:
    """Run ``op`` (which returns its own seconds) ``repeats`` times, each
    followed by the reference kernel; returns the raw times and the median
    normalized time."""
    raw, ratios = [], []
    for _ in range(repeats):
        raw.append(op())
        ratios.append(raw[-1] / reference())
    return raw, statistics.median(ratios) * REF_S


def sampled(fn, reference) -> tuple:
    """Call ``fn`` while the reference kernel runs every ``SAMPLE_EVERY``
    seconds; returns its result, its seconds without the kernel's, and the
    kernel's times (one run right after ``fn`` if none fell inside it)."""
    samples = []
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference()))
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    work = time.perf_counter() - start - sum(samples)
    return result, work, samples or [reference()]


def git_commit():
    """HEAD of the checkout's own ``.git``; None when there is none."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "linpot").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": q[0],
        "q3": q[2],
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }


class Totals:
    """Operations, margins, failures and warnings summed over every pass."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.margins, self.notes, self.warnings = {}, {}, {}
        self.failures = []

    def add(self, res, caught):
        self.attempted += res.attempted
        self.failed += res.failed
        for k, v in res.margins.items():
            self.margins[k] = max(self.margins.get(k, 0.0), v)
        for k, v in res.notes.items():
            self.notes[k] = max(self.notes.get(k, 0), v)
        for w in caught:
            name = w.category.__name__
            self.warnings[name] = self.warnings.get(name, 0) + 1
        room = MAX_LISTED_FAILURES - len(self.failures)
        self.failures.extend(res.failures[: max(room, 0)])


class Passes:
    """Per untraced pass: wall time without the reference kernel, the
    machine's speed factor while it ran (mean of ``REF_S`` over the kernel's
    times) and state-steps.  Per traced pass: wall time, the same normalized
    by the factor of the untraced pass before it, per-layer metrics and
    spans."""

    def __init__(self):
        self.walls, self.speeds, self.steps, self.kernel_s = [], [], [], []
        self.traced_walls, self.traced_norms, self.layers, self.spans = [], [], [], []

    def norms(self) -> list:
        return [w * v for w, v in zip(self.walls, self.speeds)]

    def rates(self) -> list:
        return [s / n for s, n in zip(self.steps, self.norms())]


def run_passes(workload, inputs, seconds, totals, reference, tracer=None) -> Passes:
    """Verified passes until ``seconds`` have elapsed, at least one; with a
    tracer, every other pass is traced and there are at least two."""
    out = Passes()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(out.walls) > len(out.traced_walls)
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if traced:
                tracer.reset()
                tracer.install()
                t0 = time.perf_counter()
                try:
                    res = workload.run_pass(inputs)
                finally:
                    wall = time.perf_counter() - t0
                    tracer.uninstall()
            else:
                res, wall, samples = sampled(lambda: workload.run_pass(inputs), reference)
        totals.add(res, caught)
        if traced:
            out.traced_walls.append(wall)
            out.traced_norms.append(wall * out.speeds[-1])
            out.layers.append(tracer.pass_metrics(wall))
            out.spans.append(tracer.spans)
        else:
            out.walls.append(wall)
            out.speeds.append(statistics.mean(REF_S / r for r in samples))
            out.steps.append(res.steps)
            out.kernel_s.extend(samples)
        passes = len(out.walls) + len(out.traced_walls)
        if passes >= (1 if tracer is None else 2) and time.perf_counter() - start >= seconds:
            return out


def write_spans(path: Path, spans_per_pass, layers):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for i, (spans, metrics) in enumerate(zip(spans_per_pass, layers)):
            for span_id, parent, name, start, end, self_s, attrs in spans:
                f.write(json.dumps({
                    "pass": i, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "self_s": self_s, "attrs": attrs,
                }) + "\n")
            f.write(json.dumps({"pass": i, "metrics": metrics}) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, report dict)."""
    import numpy
    import scipy

    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    totals = Totals()
    reference = make_reference()
    inputs = None

    def setup_once():
        nonlocal inputs
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        return time.perf_counter() - t0

    try:
        import_s, import_norm = paired(reimport_linpot, IMPORT_REPEATS, reference)
        setup_s, setup_norm = paired(setup_once, SETUP_REPEATS, reference)
        run_passes(workload, inputs, 0.0, totals, reference)  # warm-up, not timed
        passes = run_passes(
            workload, inputs, seconds, totals, reference, tracing.Tracer() if trace else None
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": name,
        "manifest": {
            "commit": git_commit(),
            "source_sha256": source_hash(),
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED,
            "input_sha256": workloads.input_hash(inputs),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "seconds": seconds,
            "ref_s": REF_S,
            "passes": {"warmup": 1, "timed": len(passes.walls), "traced": len(passes.layers)},
        },
        "wall_s": spread(passes.walls),
        "reference_s": spread(passes.kernel_s),
        "wall_norm_s": spread(passes.norms()),
        "state_steps_per_norm_s": spread(passes.rates()),
        "import_linpot_s": spread(import_s),
        "setup_no_import_s": spread(setup_s),
        "failed_ratio": {
            "value": totals.failed / totals.attempted,
            "failed": totals.failed,
            "attempted": totals.attempted,
        },
        "margins": totals.margins,
        "notes": totals.notes,
        "warnings": totals.warnings,
        "failures": totals.failures,
    }
    if trace:
        per_layer, repeat = tracing.summarize(passes.layers)
        per_layer["trace_overhead_s"] = (
            statistics.median(passes.traced_norms) - statistics.median(passes.norms())
        )
        report["counts_repeat_every_pass"] = repeat
        report["traced_wall_s"] = spread(passes.traced_walls)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in per_layer.items()}
        span_file = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
        write_spans(span_file, passes.spans, passes.layers)
        report["span_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "wall_norm_s": {"value": statistics.median(passes.norms()), "unit": "s"},
            "state_steps_per_norm_s": {"value": statistics.median(passes.rates()), "unit": "1/s"},
            "setup_s": {"value": import_norm + setup_norm, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB",
            },
        }
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    pin_threads()
    # Cache linpot's bytecode whatever the environment says, so that the timed
    # imports load it in every checkout instead of compiling the sources.
    sys.dont_write_bytecode = False
    try:
        import_linpot()
    except ImportError as exc:
        print(f"error: cannot import linpot from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
