"""Config-driven command-line runner.

Subcommands::

    linpot evolve --config FILE [--out DIR]   analytic + solver trajectory CSV
    linpot tunnel --config FILE [--out DIR]   barrier profile + width-scan CSV
    linpot psg    --config FILE [--out DIR]   phase report + phase-vs-V0 sweep
    linpot spin   --config FILE [--out DIR]   gate fidelity report
    linpot verify [--out DIR] [--only c01,..] full acceptance check suite

Exit codes: 0 success, 1 config/validation error, 2 numerical failure,
3 precondition violation.  Identical configs produce byte-identical CSV
output on the same platform; every CSV starts with a ``# schema:`` line and a
header row.  ``evolve`` and ``tunnel`` also write ``run.json``: the canonical
config and its sha256, the linpot/numpy/scipy versions, the solver's
state-step and FFT counts and the probability absorbed per side (per scan row
for ``tunnel``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, devices, oracle, tunneling, verify
from .analytic import _left_evolve
from .config import ExperimentConfig
from .core import Free, Linear, _fft, l2_distance, sample_gaussian
from .errors import (
    BranchMismatchError,
    ConfigError,
    CoverageError,
    DegenerateEnergyError,
    GeometryError,
    InfeasibleError,
    NoTurningPointsError,
    NormalizationError,
    PreconditionError,
    QuadratureError,
    StabilityError,
    StationarityTimeout,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_PRECONDITION = 3

_VALIDATION_ERRORS = (ConfigError, ValueError)
_PRECONDITION_ERRORS = (PreconditionError, CoverageError, NormalizationError)
_NUMERICAL_ERRORS = (
    StabilityError,
    QuadratureError,
    StationarityTimeout,
    GeometryError,
    BranchMismatchError,
    InfeasibleError,
    NoTurningPointsError,
    DegenerateEnergyError,
)


def _write_csv(path: Path, schema: str, header, rows):
    with open(path, "w") as f:
        f.write(f"# schema: {schema}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_run(out: Path, cfg: ExperimentConfig, **record):
    """Write ``run.json``: what ran (canonical config, its sha256, versions)
    and the ``record`` of how it went."""
    text = cfg.to_text()
    manifest = {
        "config": text,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "versions": {
            "linpot": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        **record,
    }
    with open(out / "run.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.dt is not None:
        if not 0.0 < args.dt < math.inf:
            raise ConfigError(f"--dt: must be positive and finite, got {args.dt!r}")
        n_steps = max(1, round(cfg.solver_dt * cfg.solver_n_steps / args.dt))
        cfg = dataclasses.replace(cfg, solver_dt=args.dt, solver_n_steps=n_steps)
    return cfg


def cmd_evolve(args) -> int:
    cfg = _load(args)
    units = cfg.units()
    grid = cfg.grid()
    solver = cfg.solver()
    psi0 = sample_gaussian(cfg.state, grid, units)

    kind = cfg.potential.kind
    if kind == "free":
        potential, v0 = Free(), 0.0
    elif kind == "linear":
        v0 = cfg.potential.v0
        potential = Linear(v0)
    else:
        potential, v0 = cfg.potential.barrier().potential(), None

    # each snapshot is compared with the closed form as it arrives, so no
    # snapshot state outlives its row; psi0 is transformed once for all rows
    l2 = []
    on_snapshot = None
    if v0 is not None:
        spectrum = _fft(psi0.amps)

        def on_snapshot(state):
            t = state.time
            exact = _left_evolve(psi0, spectrum, v0, t, units).psi if t else psi0
            l2.append(l2_distance(exact, state))

    traj = oracle.split_step_evolve(psi0, potential, solver, units, on_snapshot)
    if v0 is None:
        l2 = [math.nan] * len(traj.times)
    rows = list(zip(traj.times, traj.mean_x, traj.mean_p, traj.width, traj.norm2, l2))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "trajectory.csv",
        "evolve-v1",
        ("t", "mean_x", "mean_p", "width", "norm", "l2_vs_analytic"),
        rows,
    )
    final = traj.final_state
    _write_csv(
        out / "final_state.csv",
        "state-v1",
        ("x", "re", "im", "density"),
        zip(grid.x, final.amps.real, final.amps.imag, final.density()),
    )
    _write_run(
        out,
        cfg,
        state_steps=traj.state_steps,
        transforms=traj.transforms,
        absorbed_left=float(traj.absorbed_left[-1]),
        absorbed_right=float(traj.absorbed_right[-1]),
    )
    print(f"evolve: wrote {out / 'trajectory.csv'} ({len(rows)} snapshots)")
    if v0 is not None:
        print(f"evolve: final analytic-vs-solver L2 = {rows[-1][-1]:.3e}")
    return EXIT_OK


def cmd_tunnel(args) -> int:
    cfg = _load(args)
    units = cfg.units()
    grid = cfg.grid()
    solver = cfg.solver()
    if cfg.potential.kind != "barrier":
        raise ConfigError("[potential] kind: tunnel command needs kind = barrier")
    barrier = cfg.potential.barrier()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    profile = barrier.potential()
    _write_csv(
        out / "potential_profile.csv",
        "potential-v1",
        ("x", "V"),
        zip(grid.x, profile.evaluate(grid.x)),
    )

    scan_spec = cfg.scan
    kwargs = {}
    if scan_spec.delays:
        kwargs["delay_list"] = scan_spec.delays
    elif scan_spec.sigmas:
        kwargs["sigma_list"] = scan_spec.sigmas
    else:
        kwargs["delay_list"] = (0.0,)
    scan = tunneling.width_scan(
        p0=cfg.state.p0,
        barrier=barrier,
        grid=grid,
        cfg=solver,
        base_packet=cfg.state,
        units=units,
        **kwargs,
    )
    _write_csv(
        out / "scan.csv",
        "width-scan-v1",
        ("sigma_at_arrival", "T", "R", "residual", "t_measure"),
        [(r.sigma_at_arrival, r.T, r.R, r.residual, r.t_measure) for r in scan.rows],
    )
    _write_run(
        out,
        cfg,
        state_steps=scan.state_steps,
        transforms=scan.transforms,
        rows=[
            {
                "sigma_at_arrival": r.sigma_at_arrival,
                "absorbed_left": r.absorbed_left,
                "absorbed_right": r.absorbed_right,
            }
            for r in scan.rows
        ],
    )
    violations = scan.monotonicity_violations()
    print(f"tunnel: wrote {out / 'scan.csv'} ({len(scan.rows)} rows)")
    for lo, hi in violations:
        print(
            "tunnel: monotonicity violation: "
            f"T({hi.sigma_at_arrival:.4f}) = {hi.T:.6e} < "
            f"T({lo.sigma_at_arrival:.4f}) = {lo.T:.6e}"
        )
    if not violations:
        print("tunnel: transmission non-decreasing in width")
    return EXIT_OK


def cmd_psg(args) -> int:
    cfg = _load(args)
    units = cfg.units()
    if cfg.psg is None:
        raise ConfigError("[psg]: section required for the psg command")
    g = cfg.psg
    closed = devices.psg_phase(g, units)
    composed = devices.psg_compose(g, 0.0, units).relative_phase

    # a [state] section also drives a transverse packet through the segments;
    # the narrow-beam guard is subject to --override-preconditions
    packet_phase = math.nan
    if cfg.state_present:
        psi = sample_gaussian(cfg.state, cfg.grid(), units)
        comp = devices.psg_compose(
            g, psi, units, override_width_check=args.override_preconditions
        )
        packet_phase = comp.relative_phase

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "psg_report.csv",
        "psg-report-v1",
        ("closed_form_phase", "composed_phase", "abs_difference", "packet_phase"),
        [(closed, composed, abs(closed - composed), packet_phase)],
    )
    sweep = []
    for scale in np.linspace(0.0, 2.0, 21):
        gg = devices.PsgGeometry(g.v0 * scale, g.length, g.speed, g.mass)
        sweep.append((gg.v0, devices.psg_phase(gg, units)))
    _write_csv(out / "psg_sweep.csv", "psg-sweep-v1", ("v0", "phase"), sweep)
    print(f"psg: closed form {closed!r}, composed {composed!r}")
    print(f"psg: wrote {out / 'psg_report.csv'} and {out / 'psg_sweep.csv'}")
    return EXIT_OK


def cmd_spin(args) -> int:
    cfg = _load(args)
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
        geom = devices.solve_psg_for_phase(
            target, v0=None, length=1.0, speed=1.0, mass=units.mass, units=units
        )
        res = devices.spin_flip_circuit(state, sg_up, geom, sg_down, units)
        pops = res.z_populations()
        rows.append((target, res.phase, res.flip_fidelity, pops[0], pops[1]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "spin_report.csv",
        "spin-gate-v1",
        ("target_phase", "applied_phase", "flip_fidelity", "pop_z_up", "pop_z_down"),
        rows,
    )
    flip_row = rows[1 + 3]  # pi entry of the sweep
    print(f"spin: fidelity at phi=pi: {flip_row[2]:.12f}; control (PSG removed): {rows[0][2]:.3e}")
    print(f"spin: wrote {out / 'spin_report.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = {tok.strip() for tok in args.only.split(",") if tok.strip()}
    results = verify.run_all(only=only)
    total = sum(r.seconds for r in results)
    for r in results:
        print(r.summary_line())
    full_run = only is None
    budget_ok = total < verify.RUNTIME_BUDGET_SECONDS
    if full_run:
        status = "PASS" if budget_ok else "FAIL"
        print(
            f"c13 {status} [all checks at desk scale in under "
            f"{verify.RUNTIME_BUDGET_SECONDS:.0f} s] total_s={total:.1f}"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        r.name: {
            "criterion": r.criterion,
            "passed": r.passed,
            "measured": r.measured,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    }
    if full_run:
        summary["c13"] = {
            "criterion": "full suite under 600 s",
            "passed": budget_ok,
            "measured": {"total_s": round(total, 1)},
            "seconds": 0.0,
        }
    with open(out / "verify_summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    all_passed = all(r.passed for r in results) and (budget_ok or not full_run)
    print(f"verify: {'all checks passed' if all_passed else 'FAILURES PRESENT'}")
    return EXIT_OK if all_passed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linpot", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override solver dt")
        p.add_argument(
            "--override-preconditions",
            action="store_true",
            help="force past overridable physical-validity guards",
        )

    add_common(sub.add_parser("evolve", help="trajectory of one packet"))
    add_common(sub.add_parser("tunnel", help="barrier width scan"))
    add_common(sub.add_parser("psg", help="phase-shift generator report"))
    add_common(sub.add_parser("spin", help="spin-flip gate report"))
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    add_common(p_verify, needs_config=False)
    p_verify.add_argument("--only", default=None, help="comma-separated check names")
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
    try:
        return _COMMANDS[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
