from pathlib import Path

import pytest

from linpot.config import ExperimentConfig
from linpot.errors import ConfigError

BASE = """\
[units]
system = natural

[grid]
x_min = -32.0
x_max = 32.0
n = 2048

[state]
x0 = 0.0
p0 = 5.0
sigma = 1.0

[potential]
kind = linear
v0 = 1.0

[solver]
dt = 0.0001
n_steps = 4000
record_every = 200
"""

BARRIER = "[potential]\nkind = barrier\n"
PSG = "[psg]\nv0 = 1.0\n"
# (section, key, text): every range rule the config hands to a dataclass
HANDED_OFF = [
    ("units", "mass", "[units]\nmass = 0\n"),
    ("grid", "x_max", "[grid]\nx_min = 4.0\nx_max = 4.0\n"),
    ("grid", "n", "[grid]\nn = 8\n"),
    ("state", "sigma", "[state]\nsigma = -1.0\n"),
    ("potential", "slope", BARRIER + "slope = 0.0\n"),
    ("potential", "peak_height", BARRIER + "peak_height = -1.0\n"),
    ("potential", "descent_slope", BARRIER + "descent_slope = 0.0\n"),
    ("solver", "dt", "[solver]\ndt = 0.0\n"),
    ("solver", "n_steps", "[solver]\nn_steps = 0\n"),
    ("solver", "record_every", "[solver]\nrecord_every = -3\n"),
    (
        "solver",
        "absorber_width_fraction",
        "[solver]\nabsorber = on\nabsorber_width_fraction = 0.3\n",
    ),
    ("solver", "absorber_strength", "[solver]\nabsorber = on\nabsorber_strength = -1.0\n"),
    ("psg", "length", PSG + "length = 0.0\nspeed = 1.0\n"),
    ("psg", "speed", PSG + "length = 1.0\nspeed = -1.0\n"),
    ("psg", "mass", PSG + "length = 1.0\nspeed = 1.0\nmass = 0.0\n"),
    ("sg", "coupling", "[sg]\ncoupling = -1.0\nduration = 1.0\n"),
    ("sg", "duration", "[sg]\ncoupling = 1.0\nduration = 0.0\n"),
    ("scan", "sigmas", "[scan]\nsigmas = 1.0,-2.0\n"),
]
# (section, key, value, text): a positive-range rule also rejects inf and nan,
# and a coordinate with no range must still be finite
NON_FINITE = [
    ("state", "x0", "nan", "[state]\nx0 = nan\n"),
    ("state", "p0", "inf", "[state]\np0 = inf\n"),
    ("potential", "v0", "inf", "[potential]\nkind = linear\nv0 = inf\n"),
    ("potential", "x_start", "nan", BARRIER + "x_start = nan\n"),
    ("psg", "v0", "-inf", "[psg]\nv0 = -inf\nlength = 1.0\nspeed = 1.0\n"),
    ("scan", "delays", "0.0,nan", "[scan]\ndelays = 0.0,nan\n"),
    ("units", "mass", "inf", "[units]\nmass = inf\n"),
    ("grid", "x_min", "-inf", "[grid]\nx_min = -inf\n"),
    ("grid", "x_max", "inf", "[grid]\nx_max = inf\n"),
    ("state", "sigma", "inf", "[state]\nsigma = inf\n"),
    ("potential", "slope", "inf", BARRIER + "slope = inf\n"),
    ("potential", "peak_height", "nan", BARRIER + "peak_height = nan\n"),
    ("potential", "descent_slope", "inf", BARRIER + "descent_slope = inf\n"),
    ("solver", "dt", "inf", "[solver]\ndt = inf\n"),
    ("solver", "dt", "nan", "[solver]\ndt = nan\n"),
    ("solver", "absorber_strength", "inf", "[solver]\nabsorber = on\nabsorber_strength = inf\n"),
    ("psg", "length", "inf", PSG + "length = inf\nspeed = 1.0\n"),
    ("psg", "speed", "nan", PSG + "length = 1.0\nspeed = nan\n"),
    ("psg", "mass", "inf", PSG + "length = 1.0\nspeed = 1.0\nmass = inf\n"),
    ("sg", "coupling", "inf", "[sg]\ncoupling = inf\nduration = 1.0\n"),
    ("sg", "duration", "inf", "[sg]\ncoupling = 1.0\nduration = inf\n"),
    ("scan", "sigmas", "1.0,inf", "[scan]\nsigmas = 1.0,inf\n"),
]


SHIPPED = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))


class TestParsing:
    def test_basic_round_trip_values(self):
        cfg = ExperimentConfig.from_text(BASE)
        assert cfg.grid_n == 2048
        assert cfg.state.p0 == 5.0
        assert cfg.potential.kind == "linear"
        assert cfg.solver_dt == 1e-4
        assert cfg.units().hbar == 1.0

    def test_defaults(self):
        cfg = ExperimentConfig.from_text("")
        assert cfg.units_system == "natural"
        assert cfg.grid_n == 2048
        assert not cfg.absorber_on

    def test_field_level_errors(self):
        with pytest.raises(ConfigError, match=r"\[grid\] n"):
            ExperimentConfig.from_text("[grid]\nn = 1000\n")
        with pytest.raises(ConfigError, match=r"\[solver\] dt"):
            ExperimentConfig.from_text("[solver]\ndt = -1\n")
        with pytest.raises(ConfigError, match=r"\[potential\] kind"):
            ExperimentConfig.from_text("[potential]\nkind = quartic\n")
        with pytest.raises(ConfigError, match=r"\[units\] system"):
            ExperimentConfig.from_text("[units]\nsystem = imperial\n")
        with pytest.raises(ConfigError, match=r"\[state\] sigma"):
            ExperimentConfig.from_text("[state]\nsigma = 0\n")
        with pytest.raises(ConfigError, match=r"\[psg\] length"):
            ExperimentConfig.from_text("[psg]\nv0 = 1.0\nspeed = 1.0\n")
        with pytest.raises(ConfigError, match=r"\[units\] system"):
            ExperimentConfig(units_system="imperial").units()
        with pytest.raises(ConfigError, match=r"\[units\] hbar"):
            ExperimentConfig.from_text("[units]\nsystem = natural\nhbar = 2.0\n")

    @pytest.mark.parametrize(
        "section, key, text", HANDED_OFF, ids=[f"{s}-{k}" for s, k, _ in HANDED_OFF]
    )
    def test_dataclass_errors_name_the_key(self, section, key, text):
        # the dataclasses validate, naming the field first; the config
        # names the key, at parse time
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize(
        "section, key, value, text",
        NON_FINITE,
        ids=[f"{s}-{k}-{v}" for s, k, v, _ in NON_FINITE],
    )
    def test_non_finite_values_name_the_key(self, section, key, value, text):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: .*finite"):
            ExperimentConfig.from_text(text)

    def test_off_absorber_is_not_checked(self):
        # an absorber that is off is not built, so its settings are not checked
        off = "[solver]\nabsorber = off\nabsorber_width_fraction = 0.3\n"
        assert not ExperimentConfig.from_text(off).absorber_on

    def test_unknown_sections_are_ignored(self):
        # configs that still carry a [run] seed parse as before
        legacy = ExperimentConfig.from_text(BASE + "\n[run]\nseed = 7\n")
        assert legacy == ExperimentConfig.from_text(BASE)

    def test_scan_lists(self):
        cfg = ExperimentConfig.from_text("[scan]\ndelays = 0.0,2.0,4.0\n")
        assert cfg.scan.delays == (0.0, 2.0, 4.0)

    def test_byte_stable_round_trip(self):
        cfg = ExperimentConfig.from_text(BASE)
        text1 = cfg.to_text()
        cfg2 = ExperimentConfig.from_text(text1)
        text2 = cfg2.to_text()
        assert text1 == text2
        assert cfg2 == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_text(BASE)
        path = tmp_path / "exp.cfg"
        cfg.to_file(path)
        again = ExperimentConfig.from_file(path)
        assert again == cfg

    def test_barrier_section(self):
        text = (
            "[potential]\nkind = barrier\nx_start = 10.0\nslope = 8.0\n"
            "peak_height = 11.2\n"
        )
        cfg = ExperimentConfig.from_text(text)
        b = cfg.potential.barrier()
        assert b.x_peak == pytest.approx(11.4)

    def test_materialized_solver(self):
        text = "[solver]\ndt = 0.001\nn_steps = 10\nabsorber = on\n"
        solver = ExperimentConfig.from_text(text).solver()
        assert solver.absorber is not None
        assert solver.absorber.width_fraction == 0.15


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_round_trips(path):
    cfg = ExperimentConfig.from_file(path)
    text = cfg.to_text()
    again = ExperimentConfig.from_text(text)
    assert again == cfg
    assert again.to_text() == text


def test_every_command_has_a_shipped_config():
    names = {p.name for p in SHIPPED}
    assert names == {"linear.cfg", "psg.cfg", "spin.cfg", "tunnel.cfg"}
