from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linpot.config import ExperimentConfig, PotentialSpec
from linpot.core import Linear
from linpot.devices import PsgGeometry
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
    ("grid", "x_max", "1e308", "[grid]\nx_min = -1e308\nx_max = 1e308\n"),
    ("state", "sigma", "inf", "[state]\nsigma = inf\n"),
    ("potential", "slope", "inf", BARRIER + "slope = inf\n"),
    ("potential", "peak_height", "nan", BARRIER + "peak_height = nan\n"),
    ("potential", "descent_slope", "inf", BARRIER + "descent_slope = inf\n"),
    ("solver", "dt", "inf", "[solver]\ndt = inf\n"),
    ("solver", "dt", "nan", "[solver]\ndt = nan\n"),
    ("solver", "absorber_strength", "inf", "[solver]\nabsorber = on\nabsorber_strength = inf\n"),
    ("psg", "length", "inf", PSG + "length = inf\nspeed = 1.0\n"),
    ("psg", "speed", "nan", PSG + "length = 1.0\nspeed = nan\n"),
    ("sg", "coupling", "inf", "[sg]\ncoupling = inf\nduration = 1.0\n"),
    ("sg", "duration", "inf", "[sg]\ncoupling = 1.0\nduration = inf\n"),
    ("scan", "sigmas", "1.0,inf", "[scan]\nsigmas = 1.0,inf\n"),
]

# (section, key, text): one misspelled or foreign key per section, and a
# potential key that the kind does not read
UNKNOWN_KEYS = [
    ("units", "sytem", "[units]\nsytem = si\n"),
    ("grid", "xmin", "[grid]\nxmin = -5.0\n"),
    ("state", "sigma_x", "[state]\nsigma_x = 2.0\n"),
    ("potential", "v_0", "[potential]\nkind = linear\nv_0 = 1.0\n"),
    ("solver", "n_step", "[solver]\nn_step = 10\n"),
    ("psg", "lenght", PSG + "length = 1.0\nspeed = 1.0\nlenght = 2.0\n"),
    ("sg", "axis", "[sg]\ncoupling = 1.0\nduration = 1.0\naxis = -1\n"),
    ("scan", "delay", "[scan]\ndelay = 1.0\n"),
    ("potential", "v0", "[potential]\nkind = free\nv0 = 3.0\n"),
    ("potential", "x_start", "[potential]\nkind = linear\nv0 = 1.0\nx_start = 2.0\n"),
    ("potential", "v0", BARRIER + "v0 = 0.0\n"),
    # the particle mass has one key, [units] mass
    ("psg", "mass", PSG + "length = 1.0\nspeed = 1.0\nmass = 1.0\n"),
]

SHIPPED_DIR = Path(__file__).parents[1] / "configs"
SHIPPED = sorted(SHIPPED_DIR.glob("*.cfg"))


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

    @pytest.mark.parametrize(
        "section, key, text",
        UNKNOWN_KEYS,
        ids=[f"{s}-{k}-{i}" for i, (s, k, _) in enumerate(UNKNOWN_KEYS)],
    )
    def test_unknown_keys_name_the_key(self, section, key, text):
        # a key that would be dropped unread is an error, not a default run
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            ExperimentConfig.from_text(text)

    def test_psg_takes_the_units_mass(self):
        # the particle mass has one key: [psg] mass defaulted to 1.0 beside
        # any [units] mass
        text = "[units]\nmass = 2.0\n\n" + PSG + "length = 1.0\nspeed = 1.0\n"
        cfg = ExperimentConfig.from_text(text)
        assert cfg.psg.mass == cfg.units().mass == 2.0
        assert "[psg]\nv0 = 1.0\nlength = 1.0\nspeed = 1.0\n" in cfg.to_text()
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_psg_of_another_mass_is_refused(self):
        # to_text writes only the [units] mass, so the geometry's would be lost
        with pytest.raises(ValueError, match=r"^psg mass 2.0 is not the \[units\] mass 1.0$"):
            ExperimentConfig(psg=PsgGeometry(1.0, 1.0, 1.0, mass=2.0))

    @pytest.mark.parametrize("value", ["0.0", "inf"])
    def test_bad_units_mass_beside_psg_is_keyed_units(self, value):
        # the [psg] geometry takes the [units] mass, which is checked first
        text = PSG + f"length = 1.0\nspeed = 1.0\n\n[units]\nmass = {value}\n"
        with pytest.raises(ConfigError, match=r"^\[units\] mass: mass must be positive and finite"):
            ExperimentConfig.from_text(text)

    def test_zero_strength_absorber_is_refused(self):
        # an absorber that is on removes something: off is absorber = off
        text = "[solver]\nabsorber = on\nabsorber_strength = 0.0\n"
        with pytest.raises(ConfigError, match=r"^\[solver\] absorber_strength: .*positive"):
            ExperimentConfig.from_text(text)

    def test_off_absorber_is_not_checked(self):
        # an absorber that is off is not built, so its settings are not checked
        off = "[solver]\nabsorber = off\nabsorber_width_fraction = 0.3\n"
        assert not ExperimentConfig.from_text(off).absorber_on

    def test_unknown_sections_are_ignored(self):
        # configs that still carry a [run] seed parse as before
        legacy = ExperimentConfig.from_text(BASE + "\n[run]\nseed = 7\n")
        assert legacy == ExperimentConfig.from_text(BASE)

    def test_default_section_is_ignored(self):
        # configparser would copy [DEFAULT] keys into every section: n would
        # set grid_n, and v0 would fail as an unknown key of [grid]
        grid_only = ExperimentConfig.from_text("[grid]\nx_min = -8.0\n")
        for extra in ("n = 1024", "v0 = 3.0"):
            cfg = ExperimentConfig.from_text(f"[DEFAULT]\n{extra}\n[grid]\nx_min = -8.0\n")
            assert cfg == grid_only
            assert cfg.grid_n == ExperimentConfig().grid_n != 1024

    def test_scan_lists(self):
        cfg = ExperimentConfig.from_text("[scan]\ndelays = 0.0,2.0,4.0\n")
        assert cfg.scan.delays == (0.0, 2.0, 4.0)

    def test_scan_takes_delays_or_sigmas_not_both(self):
        # the tunnel command scans one list; the other would be dropped
        text = (SHIPPED_DIR / "tunnel.cfg").read_text().replace(
            "delays = 0.0,2.0,4.0,7.0", "delays = 0.0\nsigmas = 1.0,2.0"
        )
        with pytest.raises(ConfigError, match=r"^\[scan\] sigmas: "):
            ExperimentConfig.from_text(text)

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
        path.write_text(cfg.to_text())
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

    def test_potential_spec_rejects_unknown_kind(self):
        # the dataclass checks kind itself, so a spec built in code is held
        # to the same rule as one parsed from text
        with pytest.raises(ValueError, match=r"^kind must be free, linear or barrier"):
            PotentialSpec(kind="quartic")
        assert PotentialSpec(kind="barrier").kind == "barrier"

    def test_potential_of_each_kind(self):
        assert PotentialSpec().potential() == Linear(0.0)
        assert PotentialSpec("linear", v0=1.5).potential() == Linear(1.5)
        barrier = PotentialSpec("barrier", x_start=36.0, slope=8.0, peak_height=11.2)
        assert barrier.potential() == barrier.barrier().potential()

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


def _section(name, keys):
    """Text of section ``name`` from any subset of ``keys`` (key -> strategy
    of its value text), or no section at all."""
    return st.one_of(
        st.just(""),
        st.fixed_dictionaries({}, optional=keys).map(
            lambda d: f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in d.items())
        ),
    )


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _float_list(lo, hi):
    return st.lists(st.floats(lo, hi, allow_nan=False), min_size=1, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))
    )


CONFIG_TEXTS = st.tuples(
    _section("units", {"system": st.sampled_from(["natural", "si"]), "mass": _floats(0.1, 10)}),
    _section(
        "grid",
        {
            "x_min": _floats(-100, -1),
            "x_max": _floats(1, 100),
            "n": st.sampled_from([16, 256, 2048]).map(str),
        },
    ),
    _section("state", {"x0": _floats(-5, 5), "p0": _floats(-5, 5), "sigma": _floats(0.1, 5)}),
    _section(
        "potential",
        {
            "kind": st.sampled_from(["free", "linear", "barrier"]),
            "v0": _floats(-5, 5),
            "x_start": _floats(-10, 10),
            "slope": _floats(0.1, 10),
            "peak_height": _floats(0.1, 20),
            "descent_slope": _floats(0.1, 10),
        },
    ),
    _section(
        "solver",
        {
            "dt": _floats(1e-4, 0.1),
            "n_steps": st.integers(1, 10**5).map(str),
            "record_every": st.integers(1, 1000).map(str),
            "absorber": st.sampled_from(["on", "off"]),
            "absorber_width_fraction": _floats(0.01, 0.25),
            "absorber_strength": _floats(0, 50),
        },
    ),
    _section(
        "psg",
        {"v0": _floats(-5, 5), "length": _floats(0.1, 5), "speed": _floats(0.1, 5)},
    ),
    _section("sg", {"coupling": _floats(0, 5), "duration": _floats(0.1, 5)}),
    _section("scan", {"delays": _float_list(-10, 10), "sigmas": _float_list(0.1, 10)}),
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(CONFIG_TEXTS)
def test_every_accepted_config_round_trips(text):
    # every key the parser accepts is one that to_text writes back, so the
    # canonical text holds the whole config and is its own fixed point
    try:
        cfg = ExperimentConfig.from_text(text)
    except ConfigError:
        cfg = None
    assume(cfg is not None)
    canonical = cfg.to_text()
    again = ExperimentConfig.from_text(canonical)
    assert again == cfg
    assert again.to_text() == canonical
