"""The phase tables, the closed form, the Fourier pair and the reductions
behind the moments against reference forms written out in full.

The ``_reference_*`` functions are the reference: every table is one
``np.exp`` of its formula over its whole axis, every transform is
``scipy.fft`` and every reduction is ``np.sum``.  The kinetic table, the
Fourier pair and the reductions agree bit for bit, the shift table in
value.  The left ordering is the same composition on both sides, free
evolution and then the argument shift, four transforms in all; the
reference multiplies by its x-linear, cubic and offset phases one table at
a time where ``linear_evolve`` puts them in one exponent, so its state
agrees within ULPS ulp times max(1, largest phase argument) times its
largest amplitude.
"""

import warnings

import numpy as np
import pytest
import scipy.fft as sp_fft

from linpot import (
    NATURAL,
    GaussianSpec,
    Linear,
    SpatialGrid,
    l2_distance,
    linear_evolve,
    sample_gaussian,
    si_units,
    to_momentum_rep,
    to_position_rep,
)
from linpot.analytic import _ledger
from linpot.core import _kinetic, _moments, _shift_table
from linpot.oracle import _Propagator

SI = si_units(9.1e-31)
EPS = np.finfo(float).eps
# budget in ulp; the measured worst case is 0.56 ulp
ULPS = 4.0

GRIDS = {
    "dyadic": SpatialGrid(-32.0, 32.0, 2048),
    "non-dyadic": SpatialGrid(-3.7, 11.3, 1024),
    "n16": SpatialGrid(-8.0, 8.0, 16),
    "si": SpatialGrid(-2e-6, 2e-6, 1024),
}


def _same_bits(got, want):
    """Equal to the last bit, the sign of a zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _close(got, want, phase):
    """|got - want| <= ULPS * eps * max(1, |phase|), elementwise."""
    err = np.abs(np.asarray(got) - want) / (EPS * np.maximum(1.0, np.abs(phase)))
    assert np.all(err <= ULPS), f"{err.max():.2f} ulp"


def _close_state(got, want, phase):
    """A state within ULPS ulp times max(1, ``phase``), its largest phase
    argument, times its largest amplitude."""
    scale = np.abs(want).max()
    _close(got / scale, want / scale, phase)


def _reference_left_evolve(psi, v0, dt, units, offset):
    """``linear_evolve``'s left ordering through ``scipy.fft``, each phase
    its own table, with the largest phase argument that enters it."""
    g = psi.grid
    hbar = units.hbar
    ledger = _ledger(v0, dt, units, "left")
    kinetic = np.exp(-1j * hbar * g.k_wrap**2 * dt / (2.0 * units.mass))
    amps = sp_fft.ifft(sp_fft.fft(psi.amps) * kinetic)
    shift = ledger.argument_shift
    if shift != 0.0:
        amps = sp_fft.ifft(sp_fft.fft(amps) * np.exp(1j * g.k_wrap * shift))
    x_phase = np.exp(-1j * v0 * g.x * dt / hbar)
    offset_phase = np.exp(-1j * offset * dt / hbar) if offset else 1.0
    amps = amps * x_phase * np.exp(1j * ledger.cubic_phase) * offset_phase
    phase = (
        np.abs(g.k_wrap * shift).max()
        + np.abs(v0 * g.x * dt / hbar).max()
        + abs(ledger.cubic_phase)
        + abs(offset * dt / hbar)
    )
    return psi.with_amps(amps, time=psi.time + dt), ledger, phase


def _reference_moments(amps, grid, hbar):
    rho = np.abs(amps) ** 2
    dx = grid.dx
    n2 = float(np.sum(rho) * dx)
    if n2 <= 0.0:
        return n2, np.nan, np.nan, np.nan
    mx = float(np.sum(grid.x * rho) * dx / n2)
    var = float(np.sum((grid.x - mx) ** 2 * rho) * dx / n2)
    rho_k = np.abs(sp_fft.fft(amps)) ** 2
    mp = float(hbar * np.sum(grid.k_wrap * rho_k) / float(np.sum(rho_k)))
    return n2, mx, mp, np.sqrt(max(var, 0.0))


def _reference_l2(a, b):
    return float(np.sqrt(np.sum(np.abs(a.amps - b.amps) ** 2) * a.grid.dx))


def _reference_momentum_rep(psi, units):
    g = psi.grid
    phase = np.exp(-1j * g.k_wrap * g.x_min)
    tilde = sp_fft.fft(psi.amps) * (g.dx / np.sqrt(2.0 * np.pi * units.hbar)) * phase
    return np.fft.fftshift(tilde)


def _reference_position_rep(g, amps, units):
    phase = np.exp(1j * g.k_wrap * g.x_min)
    tilde = np.fft.ifftshift(amps)
    return sp_fft.ifft(tilde * phase) * (np.sqrt(2.0 * np.pi * units.hbar) / g.dx)


CASES = [
    ("dyadic", GaussianSpec(-2.0, 3.0, 1.0), 1.5, (0.05, 0.3, 0.9), 0.0, NATURAL),
    ("dyadic", GaussianSpec(-2.0, 3.0, 1.0), -1.5, (-0.05, -0.3, -0.9), 0.0, NATURAL),
    ("dyadic", GaussianSpec(1.0, -2.0, 0.8), 0.0, (0.05, 0.9, -0.4), 0.0, NATURAL),
    ("dyadic", GaussianSpec(-2.0, 3.0, 1.0), 0.7, (0.2, -0.6), 2.5, NATURAL),
    ("non-dyadic", GaussianSpec(3.8, 1.3, 0.8), 2.2, (0.07, 0.4, -0.3), -0.9, NATURAL),
    ("n16", GaussianSpec(0.0, 0.5, 1.0), 0.3, (0.01, -0.02), 0.0, NATURAL),
    ("si", GaussianSpec(0.0, 1e-28, 1e-7), 4e-17, (1e-11, -3e-11, 6e-11), 0.0, SI),
]
CASE_IDS = ["t-positive", "t-negative", "v0-zero", "offset", "non-dyadic", "n16", "si"]


class TestAgainstFullTables:
    @pytest.mark.parametrize("name, spec, v0, times, offset, units", CASES, ids=CASE_IDS)
    def test_left_evolve_and_moments(self, name, spec, v0, times, offset, units):
        g = GRIDS[name]
        psi = sample_gaussian(spec, g, units)
        with warnings.catch_warnings():
            # the n = 16 packet reaches the edge band, so the guards, which
            # neither form changes, are kept out of the way
            warnings.simplefilter("ignore")
            for t in times:
                got = linear_evolve(
                    psi, v0, t, units=units, offset=offset, check_coverage=False
                )
                want, ledger, phase = _reference_left_evolve(psi, v0, t, units, offset)
                _close_state(got.psi.amps, want.amps, phase)
                assert got.psi.time == want.time
                assert got.ledger == ledger
                # the reductions, on the same input, stay bit for bit
                assert _moments(got.psi.amps, g, units.hbar) == _reference_moments(
                    got.psi.amps, g, units.hbar
                )
                assert l2_distance(got.psi, psi) == _reference_l2(got.psi, psi)

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_representation_pair(self, name):
        g = GRIDS[name]
        units = SI if name == "si" else NATURAL
        spec = GaussianSpec(0.0, 1e-28, 1e-7) if name == "si" else GaussianSpec(
            0.5 * (g.x_min + g.x_max), 0.7, 0.8
        )
        psi = sample_gaussian(spec, g, units)
        _, amps = to_momentum_rep(psi, units)
        _same_bits(amps, _reference_momentum_rep(psi, units))
        back = to_position_rep(g, amps, units).amps
        _same_bits(back, _reference_position_rep(g, amps, units))

    @pytest.mark.parametrize("name", ["dyadic", "non-dyadic", "si"])
    def test_propagator_kinetic_table(self, name):
        g = GRIDS[name]
        units = SI if name == "si" else NATURAL
        dt = 1e-12 if name == "si" else 5e-3
        prop = _Propagator(g, Linear(0.0), dt, None, units)
        want = np.exp(-1j * units.hbar * g.k_wrap**2 * dt / (2.0 * units.mass))
        _same_bits(prop.exp_k, want)


class TestWrapTable:
    """For phase arguments from about 1e-8 to 1e6, the shift and kinetic
    tables equal the full-table evaluation of their formulas: the kinetic
    table to the last bit, the shift table up to the sign of the zero
    imaginary part at k = 0."""

    @staticmethod
    def _coefficients(kmax, power):
        # scales that take the largest phase argument from ~1e-8 to ~1e6
        top = np.geomspace(1e-8, 1e6, 15) / kmax**power
        return np.concatenate([top, -top, [1.0 / 3.0, np.pi]])

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_odd_tables(self, name):
        g = GRIDS[name]
        for a in self._coefficients(np.abs(g.k_wrap).max(), 1):
            for shift in (a, -a):
                want = np.exp(1j * (g.k_wrap * shift))
                np.testing.assert_array_equal(_shift_table(g, shift), want)

    @pytest.mark.parametrize("name", list(GRIDS))
    def test_even_tables(self, name):
        g = GRIDS[name]
        units = NATURAL.with_mass(1.0 / 3.0)
        for c in self._coefficients(np.abs(g.k_wrap).max(), 2):
            got = _kinetic(g, c, units)
            want = np.exp(-1j * units.hbar * g.k_wrap**2 * c / (2.0 * units.mass))
            _same_bits(got, want)
