"""The package's acceptance checks, runnable from the CLI (``linpot verify``)
and from the test suite.

Each check pins its tolerance here, measures, and returns its gates: one
:class:`Gate` per bound, holding the measured value, the comparison and the
bound.  A check passes when every gate does; its criterion text and each
gate's margin (how much of the bound the value spends, 1.0 at the bound) are
derived from the gates, so no bound is written twice.  Values that are
reported but not gated go in the result's ``info``.  Nothing is deferred to
later calibration.  Checks c01..c12 cover the numbered criteria; the runtime
budget (criterion 13: everything at desk scale in under ten minutes) is
built here over their summed seconds and ends a full run.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import field, replace

import numpy as np

from . import analytic, devices, oracle, tunneling
from .core import (
    GaussianSpec,
    Linear,
    SpatialGrid,
    UnitSystem,
    _input,
    l2_distance,
    mean_momentum,
    mean_position,
    sample_gaussian,
    spatial_width,
)

__all__ = ["Gate", "CheckResult", "CHECKS", "run_check", "run_all", "RUNTIME_BUDGET_SECONDS"]

RUNTIME_BUDGET_SECONDS = 600.0

_UPPER = {"<=": operator.le, "<": operator.lt}
_OPS = {**_UPPER, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


@_input
class Gate:
    """One acceptance gate: ``value op bound``, with ``op`` one of ``<=``,
    ``<``, ``>=``, ``>`` and ``==``.  A NaN value fails every inequality."""

    name: str
    value: object
    op: str
    bound: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"gate {self.name}: unknown comparison {self.op!r}")

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def margin(self) -> float | None:
        """value/bound for an upper bound, bound/value for a lower one, so
        1.0 is the bound and below 1.0 is room; None for an equality."""
        if self.op == "==":
            return None
        num, den = (self.value, self.bound) if self.op in _UPPER else (self.bound, self.value)
        return float(num / den) if den else math.inf


def _show(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "/".join(map(_show, v))
    return str(v)


@_input
class CheckResult:
    """A check's gates (at least one), the values it reports but does not
    gate, and its run time."""

    name: str
    gates: tuple
    info: dict = field(default_factory=dict)
    seconds: float = 0.0

    def __post_init__(self):
        if not self.gates:
            raise ValueError(f"check {self.name}: no gates, so nothing to pass")

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def criterion(self) -> str:
        return "; ".join(f"{g.name} {g.op} {g.bound!r}" for g in self.gates)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = [
            f"{g.name}={_show(g.value)}" + ("" if g.margin is None else f" (margin {g.margin:.3g})")
            for g in self.gates
        ] + [f"{k}={_show(v)}" for k, v in self.info.items()]
        return f"{self.name} {status} [{self.criterion}] {', '.join(details)} ({self.seconds:.1f}s)"


# ---------------------------------------------------------------------------
# c01: analytic vs split-step oracle, with measured convergence order
# ---------------------------------------------------------------------------


def c01_analytic_vs_oracle() -> CheckResult:
    grid = SpatialGrid(-32.0, 32.0, 4096)
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    # on a linear potential the Strang product differs from the exact
    # propagator by the global phase v0^2 T dt^2 / (24 m hbar) alone (m =
    # hbar = 1), so each draw's L2 is that phase and its shape error is at
    # roundoff; the worst draw's phase error and shape L2 are reported
    worst, shape_max, resid_max = 0.0, 0.0, 0.0
    for _ in range(20):
        v0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        total = rng.uniform(0.2, 0.5)
        spec = GaussianSpec(
            x0=rng.uniform(-2, 2), p0=rng.uniform(-3, 3), sigma=rng.uniform(0.6, 1.4)
        )
        psi = sample_gaussian(spec, grid)
        exact = analytic.linear_evolve(psi, v0, total).psi
        run = oracle._single_run(psi, Linear(v0), total, 1e-4)
        approx = run.final_state
        l2 = l2_distance(exact, approx)
        predicted = v0**2 * total * (total / run.state_steps) ** 2 / 24.0
        phase = float(np.angle(np.vdot(exact.amps, approx.amps)))
        shape_l2 = l2_distance(approx.with_amps(approx.amps * np.exp(-1j * phase)), exact)
        shape_max = max(shape_max, shape_l2)
        resid_max = max(resid_max, abs(phase - predicted))
        if l2 > worst:
            worst, worst_info = l2, {"phase_err": phase - predicted, "shape_l2": shape_l2}

    # convergence order on one representative draw
    v0, total = 2.0, 0.4
    psi = sample_gaussian(GaussianSpec(x0=-1.0, p0=2.0, sigma=1.0), grid)
    exact = analytic.linear_evolve(psi, v0, total).psi
    study = oracle._study(psi, Linear(v0), total, (4e-3, 2e-3, 1e-3, 5e-4), exact)

    # one draw with hbar != 1 and m != 1, against the pointwise closed form,
    # which shares no table with the solver's kinetic phase
    units, spec = UnitSystem(0.6, 1.7), GaussianSpec(0.7, -1.3, 1.1)
    psi = sample_gaussian(spec, grid, units)
    run = oracle._single_run(psi, Linear(1.4), 0.35, 1e-4, units)
    exact = analytic._gaussian_evolve(spec, grid, 1.4, 0.35, units)
    units_l2 = l2_distance(exact, run.final_state)
    elapsed = time.perf_counter() - start
    # the slope is fitted up to the first stall, and a stall fails
    gates = (
        Gate("max_l2", worst, "<=", 1e-7),
        Gate("shape_l2_max", shape_max, "<=", 1e-11),
        Gate("phase_resid_max", resid_max, "<=", 1e-12),
        Gate("units_l2", units_l2, "<=", 1e-7),
        Gate("stall", study.non_monotone, "==", False),
        Gate("slope_err", abs(study.slope - 2.0), "<=", 0.1),
        Gate("runtime_s", elapsed, "<", 60.0),
    )
    info = {"slope": study.slope, **worst_info}
    return CheckResult("c01", gates, info)


# ---------------------------------------------------------------------------
# c02: left/right ordering equivalence
# ---------------------------------------------------------------------------


def c02_ordering_equivalence() -> CheckResult:
    grid = SpatialGrid(-24.0, 24.0, 1024)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        v0 = rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0])
        dt = rng.uniform(0.1, 0.6)
        spec = GaussianSpec(
            x0=rng.uniform(-2, 2), p0=rng.uniform(-3, 3), sigma=rng.uniform(0.5, 1.5)
        )
        psi = sample_gaussian(spec, grid)
        left = analytic.linear_evolve(psi, v0, dt, ordering="left").psi
        right = analytic.linear_evolve(psi, v0, dt, ordering="right").psi
        worst = max(worst, l2_distance(left, right))
    return CheckResult("c02", (Gate("max_l2", worst, "<=", 1e-12),))


# ---------------------------------------------------------------------------
# c03: Ehrenfest / classical kinematics
# ---------------------------------------------------------------------------


def c03_ehrenfest() -> CheckResult:
    grid = SpatialGrid(-32.0, 32.0, 2048)
    rng = np.random.default_rng(11)
    worst_analytic = 0.0
    for _ in range(10):
        v0 = rng.uniform(0.5, 1.5)
        dt = rng.uniform(0.3, 0.6)
        spec = GaussianSpec(x0=rng.uniform(2, 4), p0=rng.uniform(2, 4), sigma=1.0)
        psi = analytic.linear_evolve(sample_gaussian(spec, grid), v0, dt).psi
        x_exp = spec.x0 + spec.p0 * dt - v0 * dt**2 / 2.0
        p_exp = spec.p0 - v0 * dt
        worst_analytic = max(
            worst_analytic,
            abs(mean_position(psi) - x_exp) / abs(x_exp),
            abs(mean_momentum(psi) - p_exp) / abs(p_exp),
        )

    v0, dt, spec = 1.0, 0.5, GaussianSpec(x0=3.0, p0=3.0, sigma=1.0)
    traj = oracle._single_run(sample_gaussian(spec, grid), Linear(v0), dt, dt / 500)
    x_exp = spec.x0 + spec.p0 * dt - v0 * dt**2 / 2.0
    p_exp = spec.p0 - v0 * dt
    worst_oracle = max(
        abs(traj.mean_x[-1] - x_exp) / abs(x_exp),
        abs(traj.mean_p[-1] - p_exp) / abs(p_exp),
    )
    gates = (
        Gate("analytic_rel", worst_analytic, "<=", 1e-10),
        Gate("oracle_rel", worst_oracle, "<=", 1e-6),
    )
    return CheckResult("c03", gates)


# ---------------------------------------------------------------------------
# c04: width invariance across slopes
# ---------------------------------------------------------------------------


def c04_width_invariance() -> CheckResult:
    grid = SpatialGrid(-32.0, 32.0, 2048)
    psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
    dt = 0.4
    widths = [
        spatial_width(analytic.linear_evolve(psi, v0, dt).psi)
        for v0 in (-10.0, -1.0, 0.0, 1.0, 10.0)
    ]
    spread = max(widths) - min(widths)
    return CheckResult("c04", (Gate("width_spread", spread, "<=", 1e-10),), {"width": widths[2]})


# ---------------------------------------------------------------------------
# c05: probability-density shift law
# ---------------------------------------------------------------------------


def c05_density_shift_law() -> CheckResult:
    grid = SpatialGrid(-32.0, 32.0, 2048)
    psi = sample_gaussian(GaussianSpec(-1.0, 2.0, 0.9), grid)
    v0, dt = 1.7, 0.7
    evolved = analytic.linear_evolve(psi, v0, dt).psi
    free = analytic.free_evolve(psi, dt)
    shifted = analytic.spectral_shift(free, v0 * dt**2 / 2.0)
    diff = float(np.max(np.abs(evolved.density() - shifted.density())))
    return CheckResult("c05", (Gate("max_density_diff", diff, "<=", 1e-12),))


# ---------------------------------------------------------------------------
# c06: semiclassical transmission anchors
# ---------------------------------------------------------------------------


def c06_wkb_anchor() -> CheckResult:
    t0 = tunneling.wkb_transmission_from_action(0.0)

    worst = 0.0
    cases = [
        tunneling.BarrierSpec(x_start=0.0, slope=2.0, peak_height=5.0),
        tunneling.BarrierSpec(x_start=-1.0, slope=1.5, peak_height=8.0, descent_slope=4.0),
        tunneling.BarrierSpec(x_start=2.0, slope=0.7, peak_height=3.0, descent_slope=2.1),
    ]
    for barrier in cases:
        for frac in (0.3, 0.6, 0.9):
            energy = frac * barrier.peak_height
            action = tunneling.wkb_sigma_R(barrier, energy)
            dv = barrier.peak_height - energy
            closed = (
                (2.0 / 3.0)
                * math.sqrt(2.0)
                * dv**1.5
                * (1.0 / barrier.slope + 1.0 / barrier.down_slope)
            )
            worst = max(worst, abs(action - closed) / closed)
    # at large action T -> e^{-2 sigma_R}
    asymptote = max(
        abs(tunneling.wkb_transmission_from_action(s) * math.exp(2.0 * s) - 1.0)
        for s in (5.0, 10.0, 20.0)
    )
    gates = (
        Gate("T_at_zero", t0, "==", 0.64),
        Gate("max_rel", worst, "<=", 1e-8),
        Gate("T_asymptote_rel", asymptote, "<=", 1e-3),
    )
    return CheckResult("c06", gates)


# ---------------------------------------------------------------------------
# c07: suppressed and over-the-barrier transmission
# ---------------------------------------------------------------------------


def c07_transmission_regimes() -> CheckResult:
    grid = SpatialGrid(-80.0, 80.0, 2048)
    absorber = oracle.Absorber(width_fraction=0.15, strength=40.0)
    cfg = oracle.SolverConfig(dt=1e-3, n_steps=40000, absorber=absorber, record_every=250)
    packet = GaussianSpec(x0=0.0, p0=10.0, sigma=1.0)
    energy = packet.p0**2 / 2.0

    blocked = tunneling.BarrierSpec(
        x_start=10.0, slope=25.0, peak_height=500.0, descent_slope=100.0
    )
    res_blocked = tunneling.run_tunneling(packet, blocked, cfg, grid)
    d_prime = blocked.d_prime(energy)
    ratio = d_prime / res_blocked.sigma_at_arrival

    over = tunneling.BarrierSpec(x_start=10.0, slope=25.0, peak_height=0.5 * energy)
    res_over = tunneling.run_tunneling(packet, over, cfg, grid)

    gates = (
        Gate("dprime_over_sigma", ratio, ">=", 10.0),
        Gate("T_blocked", res_blocked.T, "<", 1e-4),
        Gate("T_over", res_over.T, ">", 0.99),
        Gate("norm_defect_blocked", res_blocked.norm_defect(), "<", 1e-6),
        Gate("norm_defect_over", res_over.norm_defect(), "<", 1e-6),
    )
    info = {
        "residual_blocked": res_blocked.residual,
        "residual_over": res_over.residual,
        "T_exact_blocked": res_blocked.T_exact,
        "T_exact_over": res_over.T_exact,
        "stop_bound_blocked": res_blocked.stop_bound,
        "stop_bound_over": res_over.stop_bound,
    }
    return CheckResult("c07", gates, info)


# ---------------------------------------------------------------------------
# c08: the SI animation scenario
# ---------------------------------------------------------------------------


def c08_animation_scenario() -> CheckResult:
    sc = tunneling.animation_scenario()
    ratio = sc.predicted_width_ratio
    surrogate = tunneling.animation_surrogate()
    # back-solved mass ~3.45e-29 kg; width 1.10 sigma; t_a = p0/V0 against
    # the measured crossing
    gates = (
        Gate("mass_rel_err", abs(sc.mass / 3.45e-29 - 1.0), "<", 2e-3),
        Gate("width_ratio_err", abs(ratio / 1.10 - 1.0), "<", 5e-3),
        Gate("crossing_rel_err", surrogate.crossing_time_relative_error, "<=", 0.02),
        Gate(
            "surrogate_width_err", abs(surrogate.width_ratio_measured / 1.10 - 1.0), "<", 5e-3
        ),
    )
    info = {
        "mass_kg": sc.mass,
        "width_ratio": ratio,
        "surrogate_width_ratio": surrogate.width_ratio_measured,
        "t_a_si": surrogate.t_a_si,
        "t_a_measured_si": surrogate.t_a_measured_si,
    }
    return CheckResult("c08", gates, info)


# ---------------------------------------------------------------------------
# c09: width scan monotonicity
# ---------------------------------------------------------------------------


def c09_width_scan() -> CheckResult:
    # The barrier sits 36 units out so even the widest launch state has
    # negligible overlap with it (the energy-resolved transmission argument
    # needs a fully incident packet).
    grid = SpatialGrid(-128.0, 128.0, 2048)
    absorber = oracle.Absorber(width_fraction=0.2, strength=12.0)
    cfg = oracle.SolverConfig(dt=2e-3, n_steps=40000, absorber=absorber, record_every=250)
    barrier = tunneling.BarrierSpec(x_start=36.0, slope=8.0, peak_height=11.2)
    scan = tunneling.width_scan(
        p0=4.0,
        barrier=barrier,
        grid=grid,
        cfg=cfg,
        base_packet=GaussianSpec(x0=0.0, p0=4.0, sigma=1.0),
        delay_list=(0.0, 2.0, 4.0, 7.0),
    )
    hard = scan.monotonicity_violations()
    raw = scan.monotonicity_violations(slack=0.0)
    sigmas = [r.sigma_at_arrival for r in scan.rows]
    ts = [r.T for r in scan.rows]
    growth = sigmas[-1] / sigmas[0]
    # T non-decreasing, beyond the scan's measurement floor, over a
    # delay-generated sigma sweep at fixed p0
    gates = (Gate("hard_violations", len(hard), "==", 0), Gate("sigma_growth", growth, ">=", 2.0))
    info = {
        "slack": tunneling.SCAN_SLACK,
        "raw_violations": len(raw),
        "sigmas": sigmas,
        "T": ts,
        "residuals": [r.residual for r in scan.rows],
        "T_exact": [r.T_exact for r in scan.rows],
        "stop_bounds": [r.stop_bound for r in scan.rows],
    }
    return CheckResult("c09", gates, info)


# ---------------------------------------------------------------------------
# c10: PSG composed phase vs closed form
# ---------------------------------------------------------------------------


def c10_psg_phase() -> CheckResult:
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        g = devices.PsgGeometry(
            v0=rng.uniform(0.3, 2.0),
            length=rng.uniform(0.5, 2.0),
            speed=rng.uniform(0.7, 2.0),
            mass=rng.uniform(0.5, 2.0),
        )
        p = rng.uniform(-2.0, 2.0)
        composed = devices.psg_compose(g, p).relative_phase
        closed = devices.psg_phase(g)
        worst = max(worst, abs(composed - closed) / abs(closed))

    # packet input: amplitude profile must match free flight and the phase the
    # plane-wave value.  A long weak capacitor keeps the transverse spreading
    # (width 4 -> 100 over the 400-unit transit) and the +-20 argument shifts
    # inside the grid while L/width = 25 satisfies the narrow-beam guard.
    grid = SpatialGrid(-512.0, 512.0, 2048)
    psi = sample_gaussian(GaussianSpec(0.0, 0.0, 4.0), grid)
    g = devices.PsgGeometry(v0=1e-3, length=100.0, speed=1.0, mass=1.0)
    comp = devices.psg_compose(g, psi)
    free = analytic.free_evolve(psi, g.total_time)
    amp_dev = float(
        np.sqrt(np.sum((np.abs(comp.evolved.amps) - np.abs(free.amps)) ** 2) * grid.dx)
    )
    phase_dev = abs(
        math.remainder(comp.relative_phase - devices.psg_phase(g), 2.0 * math.pi)
    )
    # composed phase against -2 V0^2 L^3/(3 hbar m v^3); the packet's |psi|
    # against free flight, its phase (rad) against the plane-wave value
    gates = (
        Gate("max_rel", worst, "<=", 1e-10),
        Gate("packet_amp_l2", amp_dev, "<=", 1e-6),
        Gate("packet_phase_err", phase_dev, "<=", 1e-4),
    )
    return CheckResult("c10", gates)


# ---------------------------------------------------------------------------
# c11: Stern-Gerlach outcome
# ---------------------------------------------------------------------------


def c11_sg_outcome() -> CheckResult:
    sg = devices.SgSpec(coupling=1.5, duration=0.8)
    rho = devices.SpinDensity.unpolarized(momentum=0.0)
    out = devices.sg_apply(rho, sg)
    probs = out.branch_probabilities()
    dp = sg.delta_p
    prob_err = max(abs(p - 0.5) for p in probs)

    # eigenstate packet: one branch, kick +delta_p
    grid = SpatialGrid(-16.0, 16.0, 512)
    psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
    zero = psi.with_amps(np.zeros_like(psi.amps))
    plus_x = devices.SpinorPacket(psi, zero, basis="x")
    evolved = devices.sg_apply(plus_x, sg)
    kick_err = abs(mean_momentum(evolved.up) - dp)
    down_norm = evolved.down.norm2()

    # SI form of the kick: delta_p = (e hbar / 2 m_e) B0 dt
    si = devices.SgSpec.from_field(b0=1.2, duration=0.5)
    si_expected = (
        devices.ELEMENTARY_CHARGE_SI
        * 1.054571817e-34
        / (2.0 * devices.ELECTRON_MASS_SI)
        * 1.2
        * 0.5
    )

    # a pure state's coherence is erased once its branches are told apart
    z_up = devices.sg_apply(devices.SpinDensity([[0.5, 0.5], [0.5, 0.5]]), sg)
    coherence = float(abs(z_up.matrix[0, 1]))

    # unpolarized input splits into +-delta_p branches of probability 0.5
    gates = (
        Gate("branch_momenta", out.branch_momenta == (dp, -dp), "==", True),
        Gate("prob_err", prob_err, "<=", 1e-12),
        Gate("coherence", coherence, "==", 0.0),
        Gate("packet_kick_err", kick_err, "<=", 1e-9),
        Gate("down_norm", down_norm, "<=", 1e-20),
        Gate("si_kick_rel_err", abs(si.delta_p / si_expected - 1.0), "<", 1e-12),
    )
    return CheckResult("c11", gates, {"delta_p": dp})


# ---------------------------------------------------------------------------
# c12: spin-flip gate
# ---------------------------------------------------------------------------


def _z_up_packet():
    # sigma = sqrt(total circuit time) minimizes the spread at recombination
    grid = SpatialGrid(-64.0, 64.0, 1024)
    psi = sample_gaussian(GaussianSpec(0.0, 0.0, 2.5), grid)
    zero = psi.with_amps(np.zeros_like(psi.amps))
    return devices.SpinorPacket(psi, zero, basis="z")


def c12_spin_gate() -> CheckResult:
    sg_up = devices.SgSpec(coupling=1.0, duration=1.0, axis=+1)
    sg_down = devices.SgSpec(coupling=1.0, duration=1.0, axis=-1)
    state = _z_up_packet()

    pi_geom = devices.solve_psg_for_phase(math.pi, v0=None, length=1.0, speed=1.0)
    flip = devices.spin_flip_circuit(state, sg_up, pi_geom, sg_down)
    control = devices.spin_flip_circuit(state, sg_up, None, sg_down)

    # gate composition: mu then nu equals mu + nu up to a global phase
    mu, nu = -2.1, -0.7
    g_mu = devices.solve_psg_for_phase(mu, v0=None, length=1.0, speed=1.0)
    g_nu = devices.solve_psg_for_phase(nu, v0=None, length=1.0, speed=1.0)
    g_sum = devices.solve_psg_for_phase(mu + nu, v0=None, length=1.0, speed=1.0)
    step1 = devices.spin_flip_circuit(state, sg_up, g_mu, sg_down)
    step2 = devices.spin_flip_circuit(step1.spinor, sg_up, g_nu, sg_down)
    direct = devices.spin_flip_circuit(state, sg_up, g_sum, sg_down)
    chi_a = step2.spinor.spin_vector()
    chi_b = direct.spinor.spin_vector()
    gate_law_dev = abs(1.0 - abs(np.vdot(chi_a, chi_b)) ** 2)

    # at phi = pi/2 the z-up input leaves as ((1 + e^{i phi})/2, (1 - e^{i phi})/2),
    # whose populations alone cannot tell phi from -phi; phi is the target,
    # not the phase the circuit reports
    phi = math.pi / 2
    half = devices.solve_psg_for_phase(phi, v0=None, length=1.0, speed=1.0)
    chi = devices.spin_flip_circuit(state, sg_up, half, sg_down).spinor.spin_vector()
    turn = np.exp(1j * phi)
    want = np.array([1.0 + turn, 1.0 - turn]) / 2.0
    half_pi_fidelity = devices._fidelity(want, chi)

    gates = (
        Gate("fidelity_pi_err", abs(flip.flip_fidelity - 1.0), "<=", 1e-9),
        Gate("fidelity_removed", control.flip_fidelity, "<=", 1e-9),
        Gate("gate_law_dev", gate_law_dev, "<=", 1e-9),
        Gate("half_pi_spin_err", 1.0 - half_pi_fidelity, "<=", 1e-9),
    )
    return CheckResult("c12", gates, {"fidelity_pi": flip.flip_fidelity})


CHECKS = [
    ("c01", c01_analytic_vs_oracle),
    ("c02", c02_ordering_equivalence),
    ("c03", c03_ehrenfest),
    ("c04", c04_width_invariance),
    ("c05", c05_density_shift_law),
    ("c06", c06_wkb_anchor),
    ("c07", c07_transmission_regimes),
    ("c08", c08_animation_scenario),
    ("c09", c09_width_scan),
    ("c10", c10_psg_phase),
    ("c11", c11_sg_outcome),
    ("c12", c12_spin_gate),
]


def run_check(name: str) -> CheckResult:
    for check_name, fn in CHECKS:
        if check_name == name:
            start = time.perf_counter()
            result = fn()
            return replace(result, seconds=time.perf_counter() - start)
    raise KeyError(f"unknown check {name!r}")


def _c13_runtime_budget(results) -> CheckResult:
    total = sum(r.seconds for r in results)
    return CheckResult("c13", (Gate("total_s", total, "<", RUNTIME_BUDGET_SECONDS),))


def run_all(only=None) -> list:
    """The checks in ``only``, or all of them and then c13.  An unknown name,
    or an ``only`` that names no check, raises ValueError before any check
    runs."""
    names = [name for name, _ in CHECKS]
    unknown = sorted(set(only or ()) - set(names))
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}; known: {', '.join(names)}")
    if only is not None and not only:
        raise ValueError("no check names given")
    results = [run_check(name) for name in names if only is None or name in only]
    if only is None:
        results.append(_c13_runtime_budget(results))
    return results
