"""Experiment configuration: a flat, sectioned key-value text file.

Keys carry explicit unit meaning through the chosen unit system; there is no
unit inference.  Example::

    [units]
    system = natural

    [grid]
    x_min = -32.0
    x_max = 32.0
    n = 4096

    [state]
    x0 = 0.0
    p0 = 5.0
    sigma = 1.0

    [potential]
    kind = linear
    v0 = 1.0

    [solver]
    dt = 0.0001
    n_steps = 5000
    record_every = 100
    absorber = off

Serialization is canonical (fixed section and key order, ``repr`` floats), so
config -> file -> config -> file round trips are byte-stable.  Validation
errors name the offending section and key.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .core import NATURAL, GaussianSpec, SpatialGrid, UnitSystem, si_units
from .devices import PsgGeometry, SgSpec
from .errors import ConfigError
from .oracle import Absorber, SolverConfig
from .tunneling import BarrierSpec

__all__ = ["ExperimentConfig", "PotentialSpec", "ScanSpec"]

_MISSING = object()


@dataclass(frozen=True)
class PotentialSpec:
    """kind is one of free, linear, barrier."""

    kind: str = "free"
    v0: float = 0.0
    x_start: float = 0.0
    slope: float = 1.0
    peak_height: float = 1.0
    descent_slope: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.v0):
            raise ValueError("v0 must be finite")

    def barrier(self) -> BarrierSpec:
        return BarrierSpec(self.x_start, self.slope, self.peak_height, self.descent_slope)


@dataclass(frozen=True)
class ScanSpec:
    delays: tuple = ()
    sigmas: tuple = ()

    def __post_init__(self):
        if not all(math.isfinite(d) for d in self.delays):
            raise ValueError(f"delays must be finite, got {self.delays!r}")
        if not all(0.0 < s < math.inf for s in self.sigmas):
            raise ValueError(f"sigmas must be positive and finite, got {self.sigmas!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    units_system: str = "natural"
    mass: float = 1.0
    grid_x_min: float = -32.0
    grid_x_max: float = 32.0
    grid_n: int = 2048
    state: GaussianSpec = field(default_factory=GaussianSpec)
    state_present: bool = False
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    solver_dt: float = 1e-3
    solver_n_steps: int = 1000
    solver_record_every: int = 100
    absorber_on: bool = False
    absorber_width_fraction: float = 0.15
    absorber_strength: float = 5.0
    psg: PsgGeometry | None = None
    sg: SgSpec | None = None
    scan: ScanSpec = field(default_factory=ScanSpec)

    # -- materialized objects ------------------------------------------------

    def units(self) -> UnitSystem:
        if self.units_system == "natural":
            u = NATURAL
            if self.mass != 1.0:
                u = u.with_mass(self.mass)
            return u
        if self.units_system == "si":
            return si_units(self.mass)
        raise ConfigError(
            f"[units] system: must be natural or si, got {self.units_system!r}"
        )

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.grid_x_min, self.grid_x_max, self.grid_n)

    def solver(self) -> SolverConfig:
        absorber = (
            Absorber(self.absorber_width_fraction, self.absorber_strength)
            if self.absorber_on
            else None
        )
        return SolverConfig(
            dt=self.solver_dt,
            n_steps=self.solver_n_steps,
            absorber=absorber,
            record_every=self.solver_record_every,
        )

    # -- parsing -------------------------------------------------------------

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path) as f:
            return ExperimentConfig.from_text(f.read())

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config syntax: {exc}") from exc

        def get(section, key, conv, default=_MISSING):
            if not parser.has_option(section, key):
                if default is _MISSING:
                    raise ConfigError(f"[{section}] {key}: required key is missing")
                return default
            raw = parser.get(section, key)
            try:
                return conv(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

        def built(section, cls, *args, prefix=""):
            # the dataclasses name the offending field first in their
            # ValueError; the config key is that field behind ``prefix``
            try:
                return cls(*args)
            except ValueError as exc:
                field_name = str(exc).split(maxsplit=1)[0]
                raise ConfigError(f"[{section}] {prefix}{field_name}: {exc}") from exc

        kw = {}
        system = get("units", "system", str, "natural")
        if system not in ("natural", "si"):
            raise ConfigError(f"[units] system: must be natural or si, got {system!r}")
        kw["units_system"] = system
        kw["mass"] = get("units", "mass", float, 1.0)
        built("units", UnitSystem, 1.0, kw["mass"])
        if parser.has_option("units", "hbar"):
            raise ConfigError(
                "[units] hbar: not a setting; natural units fix hbar = 1 and si "
                "uses the CODATA value"
            )

        kw["grid_x_min"] = get("grid", "x_min", float, -32.0)
        kw["grid_x_max"] = get("grid", "x_max", float, 32.0)
        kw["grid_n"] = get("grid", "n", int, 2048)
        built("grid", SpatialGrid, kw["grid_x_min"], kw["grid_x_max"], kw["grid_n"])

        kw["state"] = built(
            "state",
            GaussianSpec,
            get("state", "x0", float, 0.0),
            get("state", "p0", float, 0.0),
            get("state", "sigma", float, 1.0),
        )
        kw["state_present"] = parser.has_section("state")

        kind = get("potential", "kind", str, "free")
        if kind not in ("free", "linear", "barrier"):
            raise ConfigError(
                f"[potential] kind: must be free, linear or barrier, got {kind!r}"
            )
        kw["potential"] = built(
            "potential",
            PotentialSpec,
            kind,
            get("potential", "v0", float, 0.0),
            get("potential", "x_start", float, 0.0),
            get("potential", "slope", float, 1.0),
            get("potential", "peak_height", float, 1.0),
            get("potential", "descent_slope", float, None),
        )
        if kind == "barrier":
            built("potential", kw["potential"].barrier)

        kw["solver_dt"] = get("solver", "dt", float, 1e-3)
        kw["solver_n_steps"] = get("solver", "n_steps", int, 1000)
        kw["solver_record_every"] = get("solver", "record_every", int, 100)
        built(
            "solver",
            SolverConfig,
            kw["solver_dt"],
            kw["solver_n_steps"],
            None,
            kw["solver_record_every"],
        )
        onoff = get("solver", "absorber", str, "off")
        if onoff not in ("on", "off"):
            raise ConfigError(f"[solver] absorber: must be on or off, got {onoff!r}")
        kw["absorber_on"] = onoff == "on"
        kw["absorber_width_fraction"] = get(
            "solver", "absorber_width_fraction", float, 0.15
        )
        kw["absorber_strength"] = get("solver", "absorber_strength", float, 5.0)
        if kw["absorber_on"]:
            built(
                "solver",
                Absorber,
                kw["absorber_width_fraction"],
                kw["absorber_strength"],
                prefix="absorber_",
            )

        if parser.has_section("psg"):
            kw["psg"] = built(
                "psg",
                PsgGeometry,
                get("psg", "v0", float),
                get("psg", "length", float),
                get("psg", "speed", float),
                get("psg", "mass", float, 1.0),
            )
        if parser.has_section("sg"):
            kw["sg"] = built(
                "sg", SgSpec, get("sg", "coupling", float), get("sg", "duration", float)
            )

        def float_list(section, key):
            raw = get(section, key, str, "")
            if not raw.strip():
                return ()
            try:
                return tuple(float(tok) for tok in raw.split(","))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

        kw["scan"] = built(
            "scan", ScanSpec, float_list("scan", "delays"), float_list("scan", "sigmas")
        )
        return ExperimentConfig(**kw)

    # -- canonical serialization ----------------------------------------------

    def to_text(self) -> str:
        def fmt(v):
            if isinstance(v, bool):
                return "on" if v else "off"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        out = io.StringIO()

        def section(name, pairs):
            pairs = [(k, v) for k, v in pairs if v is not None]
            if not pairs:
                return
            out.write(f"[{name}]\n")
            for k, v in pairs:
                out.write(f"{k} = {fmt(v)}\n")
            out.write("\n")

        section(
            "units",
            [("system", self.units_system), ("mass", self.mass)],
        )
        section(
            "grid",
            [("x_min", self.grid_x_min), ("x_max", self.grid_x_max), ("n", self.grid_n)],
        )
        if self.state_present:
            section(
                "state",
                [
                    ("x0", self.state.x0),
                    ("p0", self.state.p0),
                    ("sigma", self.state.sigma),
                ],
            )
        pot = [("kind", self.potential.kind)]
        if self.potential.kind == "linear":
            pot.append(("v0", self.potential.v0))
        elif self.potential.kind == "barrier":
            pot += [
                ("x_start", self.potential.x_start),
                ("slope", self.potential.slope),
                ("peak_height", self.potential.peak_height),
                ("descent_slope", self.potential.descent_slope),
            ]
        section("potential", pot)
        section(
            "solver",
            [
                ("dt", self.solver_dt),
                ("n_steps", self.solver_n_steps),
                ("record_every", self.solver_record_every),
                ("absorber", self.absorber_on),
                ("absorber_width_fraction", self.absorber_width_fraction),
                ("absorber_strength", self.absorber_strength),
            ],
        )
        if self.psg is not None:
            section(
                "psg",
                [
                    ("v0", self.psg.v0),
                    ("length", self.psg.length),
                    ("speed", self.psg.speed),
                    ("mass", self.psg.mass),
                ],
            )
        if self.sg is not None:
            section(
                "sg",
                [("coupling", self.sg.coupling), ("duration", self.sg.duration)],
            )
        if self.scan.delays or self.scan.sigmas:
            pairs = []
            if self.scan.delays:
                pairs.append(("delays", ",".join(repr(d) for d in self.scan.delays)))
            if self.scan.sigmas:
                pairs.append(("sigmas", ",".join(repr(s) for s in self.scan.sigmas)))
            section("scan", pairs)
        return out.getvalue()

    def to_file(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_text())
