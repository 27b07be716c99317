"""The records linpot returns are immutable tuples with their fields.

Each of the eleven record types is built here by the call that returns it,
on small grids.  Assigning to any field raises ``AttributeError``, the type
is a ``tuple`` subclass, and its fields keep their names, order and
defaults.
"""

import numpy as np
import pytest

from linpot import (
    Absorber,
    AnimationScenario,
    BarrierSpec,
    ConvergenceStudy,
    EvolutionResult,
    GateResult,
    GaussianSpec,
    Linear,
    PhaseLedger,
    PlaneWavePhase,
    PsgComposition,
    PsgGeometry,
    ScanResult,
    SgSpec,
    SolverConfig,
    SpatialGrid,
    SpinorPacket,
    SurrogateResult,
    Trajectory,
    TunnelingResult,
    animation_scenario,
    animation_surrogate,
    convergence_study,
    linear_evolve,
    plane_wave_phase,
    psg_compose,
    sample_gaussian,
    spin_flip_circuit,
    split_step_evolve,
    width_scan,
)

FIELDS = {
    PhaseLedger: (
        "cubic_phase",
        "potential_phase_coeff",
        "momentum_shift_phase_coeff",
        "argument_shift",
        "momentum_kick",
    ),
    EvolutionResult: ("psi", "ledger"),
    PlaneWavePhase: ("cubic", "p_linear", "free_kicked", "kicked_momentum"),
    Trajectory: (
        "times",
        "mean_x",
        "mean_p",
        "width",
        "norm2",
        "absorbed_left",
        "absorbed_right",
        "final_state",
        "state_steps",
        "transforms",
        "max_norm_drift",
        "boundary_time",
    ),
    ConvergenceStudy: ("entries", "slope", "non_monotone"),
    TunnelingResult: (
        "T",
        "R",
        "residual",
        "absorbed_left",
        "absorbed_right",
        "t_measure",
        "sigma_at_arrival",
        "t_a_measured",
        "t_a_linear",
        "trajectory",
        "T_exact",
        "stop_bound",
    ),
    ScanResult: ("rows",),
    AnimationScenario: ("sigma", "mass", "p0", "v0", "t_a"),
    SurrogateResult: (
        "t_a_dimensionless",
        "t_a_measured_dimensionless",
        "t_a_si",
        "t_a_measured_si",
        "width_ratio_measured",
    ),
    PsgComposition: ("relative_phase", "evolved"),
    GateResult: ("spinor", "phase", "flip_fidelity"),
}

DEFAULTS = {
    PhaseLedger: dict.fromkeys(FIELDS[PhaseLedger], 0.0),
    Trajectory: {
        "state_steps": 0,
        "transforms": 0,
        "max_norm_drift": None,
        "boundary_time": None,
    },
    PsgComposition: {"evolved": None},
}


@pytest.fixture(scope="module")
def records():
    """One record of each type, from the call that returns it."""
    grid = SpatialGrid(-16.0, 16.0, 256)
    psi = sample_gaussian(GaussianSpec(0.0, 1.0, 1.0), grid)
    evolved = linear_evolve(psi, 1.0, 0.2)
    cfg = SolverConfig(dt=0.01, n_steps=20, record_every=10)
    scan = width_scan(
        4.0,
        BarrierSpec(x_start=10.0, slope=8.0, peak_height=11.2),
        SpatialGrid(-64.0, 64.0, 1024),
        SolverConfig(dt=2e-3, n_steps=40000, absorber=Absorber(0.2, 12.0), record_every=250),
        base_packet=GaussianSpec(-20.0, 4.0, 1.0),
        sigma_list=(1.0,),
    )
    spin_grid = SpatialGrid(-64.0, 64.0, 1024)
    up = sample_gaussian(GaussianSpec(0.0, 0.0, 2.5), spin_grid)
    spinor = SpinorPacket(up, up.with_amps(np.zeros_like(up.amps)), "z")
    return [
        evolved.ledger,
        evolved,
        plane_wave_phase(2.0, 1.0, 0.5),
        split_step_evolve(psi, Linear(1.0), cfg),
        convergence_study(psi, Linear(1.0), 0.2, (0.02, 0.01)),
        scan.rows[0],
        scan,
        animation_scenario(),
        animation_surrogate(n=2048, semiclassical_ratio=120.0),
        psg_compose(PsgGeometry(0.5, 1.0, 1.0), 2.0),
        spin_flip_circuit(spinor, SgSpec(1.0, 1.0, +1), None, SgSpec(1.0, 1.0, -1)),
    ]


def test_one_record_of_each_type(records):
    assert [type(r) for r in records] == list(FIELDS)


@pytest.mark.parametrize("index", range(len(FIELDS)), ids=[t.__name__ for t in FIELDS])
def test_fields_cannot_be_assigned(records, index):
    record = records[index]
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        assert getattr(record, name) is before


@pytest.mark.parametrize("index", range(len(FIELDS)), ids=[t.__name__ for t in FIELDS])
def test_record_is_a_tuple_of_its_fields(records, index):
    record = records[index]
    cls = type(record)
    assert isinstance(record, tuple)
    assert cls._fields == FIELDS[cls]
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    assert len(record) == len(cls._fields)
    for position, name in enumerate(cls._fields):
        assert record[position] is getattr(record, name)

