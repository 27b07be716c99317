"""The benchmark's workloads: seeded inputs, one pass, and its checks.

Every workload has a ``setup(seed, workdir)`` that turns the seed into inputs
(and nothing else: the same seed gives the same inputs, hashed into the run
manifest) and a ``run_pass(inputs)`` that runs linpot through its public
functions, checks every output against the tolerances ``linpot verify`` pins,
and returns a :class:`PassResult`.  The amount of work in a pass does not
depend on the seed, only the physical parameters do, so pass times from
different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import linpot as lp
from linpot import cli
from linpot.config import ExperimentConfig

# Tolerances pinned by ``linpot verify`` (c01, c09, c10, c12).
C01_L2 = 1e-7
C01_SLOPE = 0.1
C09_SLACK = 1e-5
C09_NORM = 1e-6
C10_PLANE_REL = 1e-10
C10_AMP = 1e-6
C10_PHASE = 1e-4
C12_FIDELITY = 1e-9


@dataclass
class PassResult:
    """Operations attempted and failed in one pass, the split-step
    state-steps it executed, and the worst margin (measured value over bound,
    so 1.0 is the bound) of every check it made."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    margins: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def run(self, name, op, ops=1):
        """Run one operation; ``op`` returns its (check, margin) pairs.  An
        exception or a margin above 1 (or NaN) fails the operation."""
        try:
            checks = op()
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(name, exc, ops)
            return
        self.attempted += ops
        missed = []
        for check, margin in checks:
            margin = float(margin) if math.isfinite(margin) else math.inf
            self.margins[check] = max(self.margins.get(check, 0.0), margin)
            if not margin <= 1.0:
                missed.append(f"{check} margin {margin:.3g}")
        if missed:
            self.failed += ops
            self.failures.append(f"{name}: " + ", ".join(missed))

    def fail(self, name, exc, ops=1):
        self.attempted += ops
        self.failed += ops
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


@dataclass
class Inputs:
    """What setup generated: ``spec`` is the JSON-able description that the
    input hash covers; ``data`` holds the objects a pass runs on."""

    spec: dict
    data: dict


def input_hash(inputs: Inputs) -> str:
    text = json.dumps(inputs.spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# linear-batch: c01-style oracle runs checked against the closed form
# ---------------------------------------------------------------------------

GRID_SIZES = (1024, 2048, 4096, 8192)
DRAWS_PER_N = 8
DRAW_STEPS = 200
DRAW_DT = 1e-4
LADDER_N = 4096
LADDER_TOTAL = 0.4
LADDER_DTS = (4e-3, 2e-3, 1e-3, 5e-4)


def _c01_draw(rng) -> dict:
    return {
        "v0": _u(rng, 0.5, 2.0) * float(rng.choice([-1.0, 1.0])),
        "x0": _u(rng, -2.0, 2.0),
        "p0": _u(rng, -3.0, 3.0),
        "sigma": _u(rng, 0.6, 1.4),
    }


def setup_linear_batch(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 1)
    draws = [dict(n=n, **_c01_draw(rng)) for n in GRID_SIZES for _ in range(DRAWS_PER_N)]
    ladder = _c01_draw(rng)
    grids = {n: lp.SpatialGrid(-32.0, 32.0, n) for n in GRID_SIZES}
    steps = len(draws) * DRAW_STEPS + sum(round(LADDER_TOTAL / d) for d in LADDER_DTS)
    spec = {
        "grid": [-32.0, 32.0],
        "draw_steps": DRAW_STEPS,
        "dt": DRAW_DT,
        "draws": draws,
        "ladder": {"n": LADDER_N, "total": LADDER_TOTAL, "dts": LADDER_DTS, **ladder},
    }
    return Inputs(spec, {"grids": grids, "steps": steps})


def _packet(d, grid):
    return lp.sample_gaussian(lp.GaussianSpec(d["x0"], d["p0"], d["sigma"]), grid)


def pass_linear_batch(inputs: Inputs) -> PassResult:
    res = PassResult(steps=inputs.data["steps"])
    grids = inputs.data["grids"]
    total = DRAW_STEPS * DRAW_DT
    cfg = lp.SolverConfig(dt=DRAW_DT, n_steps=DRAW_STEPS, record_every=DRAW_STEPS)

    for d in inputs.spec["draws"]:

        def draw(d=d):
            psi = _packet(d, grids[d["n"]])
            exact = lp.linear_evolve(psi, d["v0"], total).psi
            approx = lp.split_step_evolve(psi, lp.Linear(d["v0"]), cfg).final_state
            return [("c01.l2", lp.l2_distance(exact, approx) / C01_L2)]

        res.run(f"draw n={d['n']}", draw)

    def ladder():
        d = inputs.spec["ladder"]
        psi = _packet(d, grids[LADDER_N])
        exact = lp.linear_evolve(psi, d["v0"], LADDER_TOTAL).psi
        dts, errs = [], []
        for nominal in LADDER_DTS:
            n_steps = round(LADDER_TOTAL / nominal)
            dt = LADDER_TOTAL / n_steps
            cfg = lp.SolverConfig(dt=dt, n_steps=n_steps, record_every=n_steps)
            approx = lp.split_step_evolve(psi, lp.Linear(d["v0"]), cfg).final_state
            dts.append(dt)
            errs.append(lp.l2_distance(exact, approx))
        slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
        return [("c01.slope", abs(slope - 2.0) / C01_SLOPE)]

    res.run("convergence ladder", ladder)
    return res


# ---------------------------------------------------------------------------
# barrier-scan: a delay-generated width scan shaped like configs/tunnel.cfg
# ---------------------------------------------------------------------------

# One delay from each band: the arrival width about doubles across the scan,
# and the narrow bands keep the steps to stationarity, and with them the pass
# time, nearly independent of the seed.
SCAN_DELAY_BANDS = ((0.0, 0.5), (6.5, 7.0))

TUNNEL_CFG = """\
[units]
system = natural

[grid]
x_min = -128.0
x_max = 128.0
n = 2048

[state]
x0 = 0.0
p0 = 4.0
sigma = 1.0

[potential]
kind = barrier
x_start = 36.0
slope = 8.0
peak_height = 11.2

[solver]
dt = 0.002
n_steps = 40000
record_every = 250
absorber = on
absorber_width_fraction = 0.2
absorber_strength = 12.0

[scan]
delays = {delays}

[run]
seed = {seed}
"""


def setup_barrier_scan(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 2)
    delays = [_u(rng, lo, hi) for lo, hi in SCAN_DELAY_BANDS]
    text = TUNNEL_CFG.format(delays=",".join(repr(d) for d in delays), seed=seed)
    cfg = ExperimentConfig.from_text(text)
    data = {
        "barrier": cfg.potential.barrier(),
        "grid": cfg.grid(),
        "solver": cfg.solver(),
        "state": cfg.state,
        "delays": cfg.scan.delays,
    }
    return Inputs({"config": text}, data)


def pass_barrier_scan(inputs: Inputs) -> PassResult:
    d = inputs.data
    res = PassResult()
    try:
        scan = lp.width_scan(
            p0=d["state"].p0,
            barrier=d["barrier"],
            grid=d["grid"],
            cfg=d["solver"],
            base_packet=d["state"],
            delay_list=d["delays"],
        )
    except Exception as exc:  # a failed scan fails its entries and the scan check
        res.fail("width scan", exc, ops=len(d["delays"]) + 1)
        return res

    rows = scan.rows
    res.steps = sum(round(r.t_measure / d["solver"].dt) for r in rows)
    for r in rows:
        defect = abs(r.T + r.R + r.residual - 1.0)
        res.run(
            f"scan entry sigma={r.sigma_at_arrival:.3f}",
            lambda defect=defect: [("c09.norm_defect", defect / C09_NORM)],
        )

    def monotone():
        by_sigma = sorted(rows, key=lambda r: r.sigma_at_arrival)
        drops = [a.T - b.T for a, b in zip(by_sigma, by_sigma[1:])]
        res.notes["c09.raw_violations"] = sum(1 for x in drops if x > 0.0)
        res.notes["c09.sigma_growth"] = by_sigma[-1].sigma_at_arrival / by_sigma[0].sigma_at_arrival
        return [("c09.hard_violation", max([0.0, *drops]) / C09_SLACK)]

    res.run("scan monotonicity", monotone)
    return res


# ---------------------------------------------------------------------------
# closed-form: `linpot evolve` with a snapshot every step, plus device calls
# ---------------------------------------------------------------------------

EVOLVE_STEPS = 1000
EVOLVE_DT = 1e-4
GATE_PHASES = 7
PLANE_PSG = 20
PACKET_PSG = 3

LINEAR_CFG = """\
[units]
system = natural

[grid]
x_min = -32.0
x_max = 32.0
n = 2048

[state]
x0 = {x0!r}
p0 = {p0!r}
sigma = {sigma!r}

[potential]
kind = linear
v0 = {v0!r}

[solver]
dt = {dt!r}
n_steps = {n_steps}
record_every = 1

[run]
seed = {seed}
"""


def setup_closed_form(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 3)
    evolve = {
        "x0": _u(rng, -3.0, -1.0),
        "p0": _u(rng, 2.0, 4.0),
        "sigma": _u(rng, 0.8, 1.2),
        "v0": _u(rng, 1.0, 2.0) * float(rng.choice([-1.0, 1.0])),
    }
    text = LINEAR_CFG.format(dt=EVOLVE_DT, n_steps=EVOLVE_STEPS, seed=seed, **evolve)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "linear.cfg"
    cfg_path.write_text(text)
    ExperimentConfig.from_file(cfg_path)  # reject a bad generated config before timing

    # z-up spinor packet (spin.cfg geometry) through seeded gate phases; pi
    # is the flip point c12 pins
    coupling, duration = _u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5)
    gate_sigma = _u(rng, 2.0, 3.0)
    phases = [math.pi] + [_u(rng, 0.1, 2.0 * math.pi - 0.1) for _ in range(GATE_PHASES)]
    plane = [
        {
            "v0": _u(rng, 0.3, 2.0),
            "length": _u(rng, 0.5, 2.0),
            "speed": _u(rng, 0.7, 2.0),
            "mass": _u(rng, 0.5, 2.0),
            "p": _u(rng, -2.0, 2.0),
        }
        for _ in range(PLANE_PSG)
    ]
    # Packet PSG: c10's own case (its amplitude margin is the thinnest of the
    # suite), then seeded capacitors of 21-23 packet widths; the amplitude
    # error is periodic wraparound of the spread packet and grows steeply
    # with the capacitor length.
    packets = [{"sigma": 4.0, "v0": 1e-3, "length": 100.0}] + [
        {"sigma": s, "v0": _u(rng, 5e-4, 1.5e-3), "length": _u(rng, 21.0, 23.0) * s}
        for s in (_u(rng, 4.0, 6.0) for _ in range(PACKET_PSG))
    ]

    spin_grid = lp.SpatialGrid(-64.0, 64.0, 1024)
    up = lp.sample_gaussian(lp.GaussianSpec(0.0, 0.0, gate_sigma), spin_grid)
    spinor = lp.SpinorPacket(up, up.with_amps(np.zeros_like(up.amps)), basis="z")
    spec = {
        "config": text,
        "gates": {"coupling": coupling, "duration": duration, "sigma": gate_sigma,
                  "phases": phases},
        "plane_psg": plane,
        "packet_psg": packets,
    }
    data = {
        "cfg_path": cfg_path,
        "out": workdir / "evolve-out",
        "evolve": evolve,
        "evolve_grid": lp.SpatialGrid(-32.0, 32.0, 2048),
        "spinor": spinor,
        "sg_up": lp.SgSpec(coupling, duration, axis=+1),
        "sg_down": lp.SgSpec(coupling, duration, axis=-1),
        "psg_grid": lp.SpatialGrid(-512.0, 512.0, 2048),
        "steps": EVOLVE_STEPS,
    }
    return Inputs(spec, data)


def _read_csv(path: Path, schema: str, header: str, rows: int) -> np.ndarray:
    with open(path) as f:
        if f.readline().strip() != f"# schema: {schema}" or f.readline().strip() != header:
            raise ValueError(f"{path.name}: schema or header line differs")
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if table.shape[0] != rows:
        raise ValueError(f"{path.name}: {table.shape[0]} rows, expected {rows}")
    return table


def _check_evolve(data) -> list:
    e, grid, out = data["evolve"], data["evolve_grid"], data["out"]
    total = EVOLVE_STEPS * EVOLVE_DT
    traj = _read_csv(
        out / "trajectory.csv", "evolve-v1",
        "t,mean_x,mean_p,width,norm,l2_vs_analytic", EVOLVE_STEPS + 1,
    )
    final = _read_csv(out / "final_state.csv", "state-v1", "x,re,im,density", grid.n)
    if abs(traj[-1, 0] - total) > 1e-12 or not np.array_equal(final[:, 0], grid.x):
        raise ValueError("trajectory end time or state grid differs from the config")
    psi0 = lp.sample_gaussian(lp.GaussianSpec(e["x0"], e["p0"], e["sigma"]), grid)
    exact = lp.linear_evolve(psi0, e["v0"], total).psi
    written = exact.with_amps(final[:, 1] + 1j * final[:, 2])
    return [
        ("c01.cli_l2_column", float(np.max(traj[:, 5])) / C01_L2),
        ("c01.cli_final_state_l2", lp.l2_distance(exact, written) / C01_L2),
    ]


def pass_closed_form(inputs: Inputs) -> PassResult:
    d = inputs.data
    res = PassResult(steps=d["steps"])

    def evolve():
        argv = ["evolve", "--config", str(d["cfg_path"]), "--out", str(d["out"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"linpot evolve exited with {code}")
        return _check_evolve(d)

    res.run("linpot evolve", evolve)

    def control():
        gate = lp.spin_flip_circuit(d["spinor"], d["sg_up"], None, d["sg_down"])
        return [("c12.control_fidelity", gate.flip_fidelity / C12_FIDELITY)]

    res.run("gate without PSG", control)
    for phase in inputs.spec["gates"]["phases"]:

        def gate(phase=phase):
            geom = lp.solve_psg_for_phase(phase, v0=None, length=1.0, speed=1.0)
            out = lp.spin_flip_circuit(d["spinor"], d["sg_up"], geom, d["sg_down"])
            expected = math.sin(0.5 * phase) ** 2
            return [("c12.flip_fidelity", abs(out.flip_fidelity - expected) / C12_FIDELITY)]

        res.run(f"gate phase={phase:.4f}", gate)

    for p in inputs.spec["plane_psg"]:

        def plane(p=p):
            g = lp.PsgGeometry(p["v0"], p["length"], p["speed"], p["mass"])
            composed = lp.psg_compose(g, p["p"]).relative_phase
            closed = lp.psg_phase(g)
            return [("c10.plane_phase", abs(composed - closed) / abs(closed) / C10_PLANE_REL)]

        res.run("plane-wave PSG", plane)

    for p in inputs.spec["packet_psg"]:

        def packet(p=p):
            grid = d["psg_grid"]
            psi = lp.sample_gaussian(lp.GaussianSpec(0.0, 0.0, p["sigma"]), grid)
            g = lp.PsgGeometry(v0=p["v0"], length=p["length"], speed=1.0, mass=1.0)
            comp = lp.psg_compose(g, psi)
            free = lp.free_evolve(psi, g.total_time)
            amp = np.sqrt(np.sum((np.abs(comp.evolved.amps) - np.abs(free.amps)) ** 2) * grid.dx)
            phase = abs(math.remainder(comp.relative_phase - lp.psg_phase(g), 2.0 * math.pi))
            return [("c10.packet_amp", amp / C10_AMP), ("c10.packet_phase", phase / C10_PHASE)]

        res.run(f"packet PSG L={p['length']:.1f}", packet)
    return res


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object


WORKLOADS = {
    "linear-batch": Workload(setup_linear_batch, pass_linear_batch),
    "barrier-scan": Workload(setup_barrier_scan, pass_barrier_scan),
    "closed-form": Workload(setup_closed_form, pass_closed_form),
}
