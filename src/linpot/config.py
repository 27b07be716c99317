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

One table, ``_SECTIONS``, owns every key: for each section, its keys in
canonical order, the converter that reads each and, where the section sets
flat ``ExperimentConfig`` fields (units, grid, solver), the field it sets.
Every other section builds the dataclass of the ``ExperimentConfig`` field
of its name, one field per key; the particle mass has one key, ``[units]
mass``, and the ``[psg]`` geometry takes its mass from there.  ``from_text``
and ``to_text`` both walk the table.  A key's default is its dataclass
field's default: a key the file leaves out is not set.

Validation belongs to the dataclasses a config builds, and to the
``units()``, ``grid()`` and ``solver()`` objects of the flat sections.  The
parser builds each of them as it reads its section and reports its
``ValueError`` as ``[section] key: …``.  A key that its section does not
define is such an error too, and so is a potential key that the potential's
kind does not read (``_KIND_KEYS``).  Sections the table does not name are
ignored, and ``[DEFAULT]`` is one of them: configparser would copy its keys
into every section.

Serialization is canonical (fixed section and key order, ``repr`` floats), so
config -> file -> config -> file round trips are byte-stable, and
``from_text(cfg.to_text()) == cfg`` for every config that parses.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, field, fields

from .core import (
    NATURAL,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    SpatialGrid,
    UnitSystem,
    _finite,
    _input,
    _positive,
    si_units,
)
from .devices import PsgGeometry, SgSpec
from .errors import ConfigError
from .oracle import Absorber, SolverConfig
from .tunneling import BarrierSpec

__all__ = ["ExperimentConfig", "PotentialSpec", "ScanSpec"]

# the keys each potential kind reads besides ``kind``
_KIND_KEYS = {
    "free": (),
    "linear": ("v0",),
    "barrier": ("x_start", "slope", "peak_height", "descent_slope"),
}


@_input
class PotentialSpec:
    """kind is one of free, linear, barrier; ``_KIND_KEYS`` names the fields
    each kind reads."""

    kind: str = "free"
    v0: float = 0.0
    x_start: float = 0.0
    slope: float = 1.0
    peak_height: float = 1.0
    descent_slope: float | None = BarrierSpec.descent_slope

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            *kinds, last = _KIND_KEYS
            raise ValueError(f"kind must be {', '.join(kinds)} or {last}, got {self.kind!r}")
        _finite(v0=self.v0)
        if self.kind == "barrier":
            self.barrier()

    def barrier(self) -> BarrierSpec:
        return BarrierSpec(self.x_start, self.slope, self.peak_height, self.descent_slope)

    def potential(self) -> Linear | PiecewiseLinear:
        """Linear(0.0) for free, Linear(v0) or the barrier's knot polyline."""
        if self.kind == "barrier":
            return self.barrier().potential()
        return Linear(self.v0 if self.kind == "linear" else 0.0)


@_input
class ScanSpec:
    delays: tuple = ()
    sigmas: tuple = ()

    def __post_init__(self):
        for d in self.delays:
            _finite(delays=d)
        for s in self.sigmas:
            _positive(sigmas=s)
        if self.delays and self.sigmas:
            raise ValueError("sigmas cannot be combined with delays: a scan varies one")


@_input
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
    solver_record_every: int = SolverConfig.record_every
    absorber_on: bool = False
    absorber_width_fraction: float = Absorber.width_fraction
    absorber_strength: float = Absorber.strength
    psg: PsgGeometry | None = None
    sg: SgSpec | None = None
    scan: ScanSpec = field(default_factory=ScanSpec)

    def __post_init__(self):
        if self.psg is not None and self.psg.mass != self.mass:
            raise ValueError(f"psg mass {self.psg.mass!r} is not the [units] mass {self.mass!r}")

    # -- materialized objects ------------------------------------------------

    def units(self) -> UnitSystem:
        if self.units_system == "natural":
            return NATURAL.with_mass(self.mass)
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
        # no section header can spell the empty name, so [DEFAULT] is an
        # ordinary section, ignored like any other the table does not name
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config syntax: {exc}") from exc

        kw = {"state_present": parser.has_section("state")}
        for name, cls, keys, required in _TABLE:
            present = parser.has_section(name)
            values = {}
            for key, raw in parser.items(name) if present else ():
                if key not in keys:
                    raise ConfigError(
                        f"[{name}] {key}: not a key of [{name}], which takes "
                        + ", ".join(keys)
                    )
                conv, attr = keys[key]
                try:
                    values[attr] = conv(raw)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"[{name}] {key}: {exc}") from exc
            if cls is None:
                kw.update(values)
                # checked as read, so the [psg] geometry takes a sound mass
                _built(name, keys, getattr(ExperimentConfig(**kw), name))
            elif present or not required:
                missing = [key for key in keys if key in required and key not in values]
                if missing:
                    raise ConfigError(f"[{name}] {missing[0]}: required key is missing")
                # the beam's mass is the [units] mass
                mass = {"mass": kw.get("mass", ExperimentConfig.mass)} if name == "psg" else {}
                kw[name] = obj = _built(name, keys, cls, **values, **mass)
                unread = [key for key in values if key not in _read_keys(name, obj, keys)]
                if unread:
                    raise ConfigError(f"[{name}] {unread[0]}: not read by kind = {obj.kind}")
        return ExperimentConfig(**kw)

    # -- canonical serialization ----------------------------------------------

    def to_text(self) -> str:
        out = []
        for name, cls, keys, _ in _TABLE:
            owner = self if cls is None else getattr(self, name)
            if owner is None or (name == "state" and not self.state_present):
                continue
            pairs = [(key, getattr(owner, keys[key][1])) for key in _read_keys(name, owner, keys)]
            pairs = [(key, v) for key, v in pairs if v is not None and v != ()]
            if pairs:
                out.append(f"[{name}]\n")
                out += [f"{key} = {_fmt(v)}\n" for key, v in pairs]
                out.append("\n")
        return "".join(out)


def _on_off(raw: str) -> bool:
    if raw not in ("on", "off"):
        raise ValueError(f"must be on or off, got {raw!r}")
    return raw == "on"


def _floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",")) if raw.strip() else ()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    if isinstance(v, tuple):
        return ",".join(repr(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


# (section, the dataclass it builds or None where its keys set flat
# ExperimentConfig fields, its keys in canonical order as (key, converter)
# or, where the field a key sets is not named after it, (key, converter,
# field)); the [psg] geometry's mass is the [units] mass, not a key of its own
_SECTIONS = (
    ("units", None, (("system", str, "units_system"), ("mass", float))),
    ("grid", None, (("x_min", float, "grid_x_min"), ("x_max", float, "grid_x_max"),
                    ("n", int, "grid_n"))),
    ("state", GaussianSpec, (("x0", float), ("p0", float), ("sigma", float))),
    ("potential", PotentialSpec, (("kind", str), ("v0", float), ("x_start", float),
                                  ("slope", float), ("peak_height", float),
                                  ("descent_slope", float))),
    ("solver", None, (("dt", float, "solver_dt"), ("n_steps", int, "solver_n_steps"),
                      ("record_every", int, "solver_record_every"),
                      ("absorber", _on_off, "absorber_on"),
                      ("absorber_width_fraction", float), ("absorber_strength", float))),
    ("psg", PsgGeometry, (("v0", float), ("length", float), ("speed", float))),
    ("sg", SgSpec, (("coupling", float), ("duration", float))),
    ("scan", ScanSpec, (("delays", _floats), ("sigmas", _floats))),
)

# _SECTIONS as lookups, built once: (section, class, {key: (converter,
# field)}, the fields with no default)
_TABLE = tuple(
    (
        name,
        cls,
        {key: (conv, attr[0] if attr else key) for key, conv, *attr in keys},
        {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
        if cls
        else set(),
    )
    for name, cls, keys in _SECTIONS
)


def _read_keys(name, owner, keys):
    """The keys of section ``name`` that ``owner`` reads: a potential reads
    ``kind`` and its kind's keys, every other section all of its keys."""
    return ("kind", *_KIND_KEYS[owner.kind]) if name == "potential" else keys


def _built(section, keys, make, **kwargs):
    """``make(**kwargs)``, its ``ValueError`` as a keyed ConfigError.  The
    dataclasses name the offending field first in their ValueError; the key
    is the section's key of that name or else the one ending in ``_name``
    (the absorber's fields sit behind ``absorber_``)."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        name = str(exc).split(maxsplit=1)[0]
        if name not in keys:
            name = next((k for k in keys if k.endswith("_" + name)), name)
        raise ConfigError(f"[{section}] {name}: {exc}") from exc
