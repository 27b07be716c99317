"""Config-driven command-line runner.

Subcommands::

    linpot evolve --config FILE [--out DIR] [--dt DT]   analytic + solver trajectory CSV
    linpot tunnel --config FILE [--out DIR] [--dt DT]   barrier profile + width-scan CSV
    linpot psg    --config FILE [--out DIR] [--override-preconditions]
                                                        phase report + phase-vs-V0 sweep
    linpot spin   --config FILE [--out DIR]             gate fidelity report
    linpot verify [--out DIR] [--only c01,..]           full acceptance check suite

Exit codes: 0 success, 1 config/validation error (a usage error and a file
that cannot be read or written included), 2 numerical failure (any other
package error), 3 precondition violation.
Identical configs produce byte-identical CSV output on the same platform;
every CSV starts with a ``# schema:`` line and a header row.  A command only
computes: it returns its files, its ``run.json`` record, its stdout lines and
its exit code, and ``main`` writes them all, into ``--out`` made only once the
command has returned, so a command that fails writes nothing.  ``run.json``
holds the linpot/numpy/scipy versions, the canonical config and its sha256
(for the commands that read one) and the command's headline numbers: for
``evolve`` and ``tunnel`` the solver's state-step and FFT counts and the
probability absorbed per side (per scan row for ``tunnel``) and the seconds
spent solving, for ``tunnel`` also each row's stop bound (its bound on the
transmission still to come when it stopped), for ``evolve`` also the worst
norm drift, the first boundary-contact time and the seconds spent on the
reference (part of the solve), for ``verify`` the checks that ran and their
seconds, each and in total; for every command that writes CSVs, the seconds
spent writing them.
Its ``warnings`` list holds the category and message of each warning the run
showed, in the order raised; each still goes to stderr as well.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, devices, oracle, tunneling, verify
from .analytic import _gaussian_evolve
from .config import ExperimentConfig
from .core import Linear, _scipy_module, l2_distance, sample_gaussian
from .errors import ConfigError, CoverageError, LinpotError, NormalizationError, PreconditionError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_PRECONDITION = 3

_VALIDATION_ERRORS = (ConfigError, ValueError, OSError)
_PRECONDITION_ERRORS = (PreconditionError, CoverageError, NormalizationError)


def _write_csv(path: Path, schema: str, header, rows):
    with open(path, "w") as f:
        f.write(f"# schema: {schema}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(repr, map(float, row))) + "\n")


def _write_json(path: Path, obj):
    with open(path, "w") as f:
        # numpy scalars are written as the Python numbers they hold
        json.dump(obj, f, indent=2, sort_keys=True, default=np.generic.item)
        f.write("\n")


@functools.cache
def _scipy_version() -> str:
    """scipy's ``__version__``, read from ``scipy/version.py`` by file, so no
    command imports the scipy package."""
    return _scipy_module("version").version


def _load(args) -> ExperimentConfig | None:
    """The command's config, with ``--dt`` applied; None for a command
    without ``--config``."""
    if getattr(args, "config", None) is None:
        return None
    cfg = ExperimentConfig.from_file(args.config)
    dt = getattr(args, "dt", None)
    if dt is not None:
        if not 0.0 < dt < math.inf:
            raise ConfigError(f"--dt: must be positive and finite, got {dt!r}")
        n_steps = max(1, round(cfg.solver_dt * cfg.solver_n_steps / dt))
        cfg = dataclasses.replace(cfg, solver_dt=dt, solver_n_steps=n_steps)
    return cfg


def _run(args) -> int:
    """Load the config and run the command; only once it has returned,
    create ``--out`` and write its files (a ``*.csv`` as ``(schema, header,
    rows)``, timed; a ``*.json`` as the object), its ``run.json`` and its
    stdout lines.  Returns its exit code."""
    cfg = _load(args)
    files, record, lines, code = _COMMANDS[args.command](args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csvs = {name: content for name, content in files.items() if name.endswith(".csv")}
    start = time.perf_counter()
    for name, content in csvs.items():
        _write_csv(out / name, *content)
    if csvs:
        record.setdefault("seconds", {})["write"] = round(time.perf_counter() - start, 3)
    for name, obj in files.items():
        if name.endswith(".json"):
            _write_json(out / name, obj)
    versions = {"linpot": __version__, "numpy": np.__version__, "scipy": _scipy_version()}
    manifest = {"versions": versions, **record, "warnings": args.warnings}
    if cfg is not None:
        text = cfg.to_text()
        manifest.update(config=text, config_sha256=hashlib.sha256(text.encode()).hexdigest())
    _write_json(out / "run.json", manifest)
    for line in lines:
        print(line)
    return code


def cmd_evolve(args, cfg):
    units = cfg.units()
    grid = cfg.grid()
    solver = cfg.solver()
    psi0 = sample_gaussian(cfg.state, grid, units)

    potential = cfg.potential.potential()
    # a linear potential (slope 0 for free) has a closed form, a polyline not
    v0 = potential.v0 if isinstance(potential, Linear) else None

    # each snapshot is compared with the exact Gaussian as it arrives, so no
    # snapshot state outlives its row; the reference is evaluated pointwise,
    # so a packet that leaves the grid shows in the column, not as an error
    l2 = []
    on_snapshot = None
    reference = 0.0  # seconds inside on_snapshot
    if v0 is not None:
        def on_snapshot(state):
            nonlocal reference
            start = time.perf_counter()
            t = state.time
            exact = _gaussian_evolve(cfg.state, grid, v0, t, units) if t else psi0
            l2.append(l2_distance(exact, state))
            reference += time.perf_counter() - start

    start = time.perf_counter()
    traj = oracle.split_step_evolve(psi0, potential, solver, units, on_snapshot)
    solve = time.perf_counter() - start
    if v0 is None:
        l2 = [math.nan] * len(traj.times)
    columns = (traj.times, traj.mean_x, traj.mean_p, traj.width, traj.norm2)
    rows = list(zip(*(c.tolist() for c in columns), l2))
    header = ("t", "mean_x", "mean_p", "width", "norm", "l2_vs_analytic")
    final = traj.final_state
    columns = (grid.x, final.amps.real, final.amps.imag, final.density())
    state = zip(*(c.tolist() for c in columns))
    files = {
        "trajectory.csv": ("evolve-v1", header, rows),
        "final_state.csv": ("state-v1", ("x", "re", "im", "density"), state),
    }
    record = dict(
        state_steps=traj.state_steps,
        transforms=traj.transforms,
        absorbed_left=float(traj.absorbed_left[-1]),
        absorbed_right=float(traj.absorbed_right[-1]),
        max_norm_drift=traj.max_norm_drift,
        boundary_time=traj.boundary_time,
        seconds={"solve": round(solve, 3), "reference": round(reference, 3)},
    )
    lines = [f"evolve: wrote {Path(args.out) / 'trajectory.csv'} ({len(rows)} snapshots)"]
    if v0 is not None:
        lines.append(f"evolve: final analytic-vs-solver L2 = {rows[-1][-1]:.3e}")
    return files, record, lines, EXIT_OK


def cmd_tunnel(args, cfg):
    units = cfg.units()
    grid = cfg.grid()
    solver = cfg.solver()
    if cfg.potential.kind != "barrier":
        raise ConfigError("[potential] kind: tunnel command needs kind = barrier")
    barrier = cfg.potential.barrier()

    # the config gives delays or sigmas, not both
    if cfg.scan.sigmas:
        kwargs = {"sigma_list": cfg.scan.sigmas}
    else:
        kwargs = {"delay_list": cfg.scan.delays or (0.0,)}
    start = time.perf_counter()
    scan = tunneling.width_scan(
        p0=cfg.state.p0,
        barrier=barrier,
        grid=grid,
        cfg=solver,
        base_packet=cfg.state,
        units=units,
        **kwargs,
    )
    solve = time.perf_counter() - start
    files = {
        "potential_profile.csv": (
            "potential-v1", ("x", "V"), zip(grid.x, barrier.potential().evaluate(grid.x))
        ),
        "scan.csv": (
            "width-scan-v1",
            ("sigma_at_arrival", "T", "R", "residual", "t_measure"),
            [(r.sigma_at_arrival, r.T, r.R, r.residual, r.t_measure) for r in scan.rows],
        ),
    }
    record = dict(
        state_steps=scan.state_steps,
        transforms=scan.transforms,
        rows=[
            {
                k: getattr(r, k)
                for k in ("sigma_at_arrival", "absorbed_left", "absorbed_right", "stop_bound")
            }
            for r in scan.rows
        ],
        seconds={"solve": round(solve, 3)},
    )
    violations = scan.monotonicity_violations()
    lines = [f"tunnel: wrote {Path(args.out) / 'scan.csv'} ({len(scan.rows)} rows)"]
    for lo, hi in violations:
        lines.append(
            "tunnel: monotonicity violation: "
            f"T({hi.sigma_at_arrival:.4f}) = {hi.T:.6e} < "
            f"T({lo.sigma_at_arrival:.4f}) = {lo.T:.6e}"
        )
    if not violations:
        # every raw decrease is below the floor: report them, not as violations
        drops = [lo.T - hi.T for lo, hi in scan.monotonicity_violations(slack=0.0)]
        lines.append(
            "tunnel: transmission non-decreasing in width; "
            f"{len(drops)} raw decreases below the {tunneling.SCAN_SLACK:g} floor"
            + (f", largest {max(drops):.1e}" if drops else "")
        )
    return files, record, lines, EXIT_OK


def cmd_psg(args, cfg):
    units = cfg.units()
    if cfg.psg is None:
        raise ConfigError("[psg]: section required for the psg command")
    g = cfg.psg
    closed = devices.psg_phase(g, units)
    composed = devices.psg_compose(g, 0.0, units).relative_phase

    # a [state] section also drives a transverse packet through the segments;
    # the narrow-beam guard is subject to --override-preconditions.  Its phase
    # is written on the closed form's branch, so roundoff at an odd multiple
    # of pi cannot move it by 2 pi.
    packet_phase = math.nan
    if cfg.state_present:
        psi = sample_gaussian(cfg.state, cfg.grid(), units)
        comp = devices.psg_compose(
            g, psi, units, override_width_check=args.override_preconditions
        )
        packet_phase = closed + math.remainder(comp.relative_phase - closed, 2 * math.pi)

    sweep = []
    for scale in np.linspace(0.0, 2.0, 21):
        gg = devices.PsgGeometry(g.v0 * scale, g.length, g.speed, g.mass)
        sweep.append((gg.v0, devices.psg_phase(gg, units)))
    files = {
        "psg_report.csv": (
            "psg-report-v1",
            ("closed_form_phase", "composed_phase", "abs_difference", "packet_phase"),
            [(closed, composed, abs(closed - composed), packet_phase)],
        ),
        "psg_sweep.csv": ("psg-sweep-v1", ("v0", "phase"), sweep),
    }
    record = dict(
        closed_form_phase=closed,
        composed_phase=composed,
        packet_phase=packet_phase if cfg.state_present else None,
    )
    out = Path(args.out)
    lines = [f"psg: closed form {closed!r}, composed {composed!r}"]
    lines.append(f"psg: wrote {out / 'psg_report.csv'} and {out / 'psg_sweep.csv'}")
    return files, record, lines, EXIT_OK


def cmd_spin(args, cfg):
    units = cfg.units()
    if cfg.sg is None:
        raise ConfigError("[sg]: section required for the spin command")
    sg_up = cfg.sg
    sg_down = devices.SgSpec(sg_up.coupling, sg_up.duration, axis=-1)
    grid = cfg.grid()
    psi = sample_gaussian(cfg.state, grid, units)
    zero = psi.with_amps(np.zeros_like(psi.amps))
    state = devices.SpinorPacket(psi, zero, basis="z")

    rows = []
    # PSG-removed control first, then a sweep through the pi flip point
    control = devices.spin_flip_circuit(state, sg_up, None, sg_down, units)
    pops = control.z_populations()
    rows.append((0.0, 0.0, control.flip_fidelity, pops[0], pops[1]))
    for target in np.linspace(0.25, 2.0, 8) * math.pi:
        geom = devices.solve_psg_for_phase(target, v0=None, length=1.0, speed=1.0, units=units)
        res = devices.spin_flip_circuit(state, sg_up, geom, sg_down, units)
        pops = res.z_populations()
        rows.append((target, res.phase, res.flip_fidelity, pops[0], pops[1]))

    header = ("target_phase", "applied_phase", "flip_fidelity", "pop_z_up", "pop_z_down")
    flip_row = rows[1 + 3]  # pi entry of the sweep
    record = dict(control_fidelity=float(rows[0][2]), fidelity_at_pi=float(flip_row[2]))
    lines = [
        f"spin: fidelity at phi=pi: {flip_row[2]:.12f}; control (PSG removed): {rows[0][2]:.3e}",
        f"spin: wrote {Path(args.out) / 'spin_report.csv'}",
    ]
    return {"spin_report.csv": ("spin-gate-v1", header, rows)}, record, lines, EXIT_OK


def cmd_verify(args, cfg):
    only = None
    if args.only is not None:
        only = {tok.strip() for tok in args.only.split(",") if tok.strip()}
    start = time.perf_counter()
    results = verify.run_all(only=only)
    total = time.perf_counter() - start
    summary = {
        r.name: {
            "criterion": r.criterion,
            "passed": r.passed,
            "gates": {
                g.name: {"value": g.value, "op": g.op, "bound": g.bound, "margin": g.margin}
                for g in r.gates
            },
            "info": r.info,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    }
    record = dict(
        checks=[r.name for r in results],
        seconds={r.name: round(r.seconds, 3) for r in results},
        total_seconds=round(total, 3),
    )
    all_passed = all(r.passed for r in results)
    lines = [r.summary_line() for r in results]
    lines.append(f"verify: {'all checks passed' if all_passed else 'FAILURES PRESENT'}")
    code = EXIT_OK if all_passed else EXIT_NUMERICAL
    return {"verify_summary.json": summary}, record, lines, code


class _Parser(argparse.ArgumentParser):
    """argparse, with a usage error exiting ``EXIT_VALIDATION``: argparse's
    own code, 2, is ``EXIT_NUMERICAL`` here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linpot", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, needs_config=True):
        p = sub.add_parser(name, help=summary)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        return p

    # each flag goes only to the commands that read it
    for name, summary in (("evolve", "trajectory of one packet"), ("tunnel", "barrier width scan")):
        command(name, summary).add_argument(
            "--dt", type=float, default=None, help="override solver dt"
        )
    command("psg", "phase-shift generator report").add_argument(
        "--override-preconditions",
        action="store_true",
        help="force past overridable physical-validity guards",
    )
    command("spin", "spin-flip gate report")
    command("verify", "run the acceptance checks", needs_config=False).add_argument(
        "--only", default=None, help="comma-separated check names"
    )
    return parser


_COMMANDS = {
    "evolve": cmd_evolve,
    "tunnel": cmd_tunnel,
    "psg": cmd_psg,
    "spin": cmd_spin,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.warnings = []
    with warnings.catch_warnings():
        # each warning the run shows is recorded for run.json, then shown
        show = warnings.showwarning

        def record(message, category, *where):
            args.warnings.append({"category": category.__name__, "message": str(message)})
            show(message, category, *where)

        warnings.showwarning = record
        try:
            return _run(args)
        except _VALIDATION_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except _PRECONDITION_ERRORS as exc:
            print(f"precondition: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        except LinpotError as exc:  # every other package error is numerical
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
