import cmath
import math

import numpy as np
import pytest

from linpot import (
    NATURAL,
    GaussianSpec,
    PsgGeometry,
    SgSpec,
    SpatialGrid,
    SpinDensity,
    SpinorPacket,
    free_evolve,
    l2_distance,
    mean_momentum,
    psg_compose,
    psg_phase,
    sample_gaussian,
    sg_apply,
    solve_psg_for_phase,
    spin_flip_circuit,
)
from linpot.devices import compose_segments
from linpot.errors import (
    BoundaryContaminationWarning,
    BranchMismatchError,
    GeometryError,
    InfeasibleError,
    PreconditionError,
)


@pytest.fixture
def spin_grid():
    return SpatialGrid(-64.0, 64.0, 1024)


def z_packet(grid, up=True, sigma=2.5):
    psi = sample_gaussian(GaussianSpec(0.0, 0.0, sigma), grid)
    zero = psi.with_amps(np.zeros_like(psi.amps))
    return SpinorPacket(psi if up else zero, zero if up else psi, basis="z")


class TestSpinorPacket:
    def test_norm(self, spin_grid):
        s = z_packet(spin_grid)
        assert abs(s.norm2() - 1.0) < 1e-12

    def test_basis_round_trip(self, spin_grid):
        s = z_packet(spin_grid)
        back = s.to_basis("x").to_basis("z")
        assert l2_distance(back.up, s.up) < 1e-14
        assert l2_distance(back.down, s.down) < 1e-14

    def test_hadamard_relation(self, spin_grid):
        # |S_z,+> = (|S_x,+> + |S_x,->)/sqrt(2)
        s = z_packet(spin_grid)
        x = s.to_basis("x")
        assert x.up.norm2() == pytest.approx(0.5, abs=1e-12)
        assert x.down.norm2() == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(x.up.amps, x.down.amps, atol=1e-15)

    def test_spin_vector(self, spin_grid):
        s = z_packet(spin_grid, up=False)
        vec = s.spin_vector()
        np.testing.assert_allclose(vec, [0.0, 1.0], atol=1e-14)


class TestSpinDensity:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SpinDensity(np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            SpinDensity(np.eye(2))
        with pytest.raises(ValueError, match="eigenvalues"):
            SpinDensity(np.array([[1.5, 0.0], [0.0, -0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_is_refused(self, value):
        # a NaN entry was reported as a matrix that is not Hermitian
        with pytest.raises(ValueError, match="^spin density must have finite entries"):
            SpinDensity([[value, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("momenta", [(np.nan, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_branch_momenta_are_refused(self, momenta):
        # NaN labels made a zero-coupling sg_apply erase the coherences
        with pytest.raises(ValueError, match="^branch_momenta must be finite"):
            SpinDensity([[0.5, 0.5], [0.5, 0.5]], momenta)

    def test_unpolarized_refuses_a_non_finite_momentum(self):
        with pytest.raises(ValueError, match="^branch_momenta must be finite"):
            SpinDensity.unpolarized(np.nan)

    @pytest.mark.parametrize("momenta", [(), (1.0,), (1.0, 2.0, 3.0)])
    def test_branch_momenta_must_be_a_pair(self, momenta):
        # sg_apply dropped a third label; fewer raised IndexError later
        with pytest.raises(ValueError, match="^branch_momenta must hold two momenta"):
            SpinDensity([[0.5, 0.5], [0.5, 0.5]], momenta)

    def test_unpolarized(self):
        rho = SpinDensity.unpolarized(momentum=0.5)
        assert rho.branch_momenta == (0.5, 0.5)
        assert rho.branch_probabilities() == (0.5, 0.5)

    def test_equal_momenta_keep_both_branch_probabilities(self):
        # keyed by momentum, the two branches collapsed into {1.0: 0.3}
        rho = SpinDensity([[0.7, 0.2], [0.2, 0.3]], (1.0, 1.0))
        assert rho.branch_probabilities() == (0.7, 0.3)


class TestPsgPhase:
    def test_zero_field(self):
        assert psg_phase(PsgGeometry(0.0, 1.0, 1.0)) == 0.0

    def test_unit_geometry(self):
        assert psg_phase(PsgGeometry(1.0, 1.0, 1.0)) == pytest.approx(-2.0 / 3.0)

    def test_sign_even_in_field(self):
        g_plus = PsgGeometry(1.3, 1.0, 1.0)
        g_minus = PsgGeometry(-1.3, 1.0, 1.0)
        assert psg_phase(g_plus) == psg_phase(g_minus)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PsgGeometry(1.0, -1.0, 1.0)


class TestPsgCompose:
    def test_plane_wave_matches_closed_form_any_momentum(self):
        g = PsgGeometry(1.3, 1.7, 0.9, mass=1.4)
        closed = psg_phase(g)
        for p in (0.0, 0.7, -2.3):
            comp = psg_compose(g, p)
            assert comp.relative_phase == pytest.approx(closed, rel=1e-12)

    def test_unbalanced_segments_rejected(self):
        with pytest.raises(GeometryError, match="balanced"):
            compose_segments(((1.0, 1.0), (-1.0, 1.0), (1.0, 1.0)), 0.0)

    @pytest.mark.parametrize(
        "segments, name",
        [(((np.nan, 1.0), (1.0, 1.0)), "slope"), (((1.0, np.nan), (-1.0, 1.0)), "duration")],
        ids=["slope", "duration"],
    )
    def test_non_finite_segment_is_refused(self, segments, name):
        # NaN fails neither balance comparison: the phase came back NaN
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            compose_segments(segments, 0.5)

    @pytest.mark.parametrize(
        "p, value", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)], ids=["float32", "int64"]
    )
    def test_any_real_momentum_is_a_plane_wave(self, p, value):
        g = PsgGeometry(1.3, 1.7, 0.9, mass=1.4)
        assert psg_compose(g, p) == psg_compose(g, value)

    @pytest.mark.parametrize("p", [True, np.bool_(True)], ids=["bool", "numpy-bool"])
    def test_bool_momentum_is_refused(self, p):
        # True was taken for the momentum 1.0
        with pytest.raises(TypeError, match="momentum value or a WaveFunction"):
            psg_compose(PsgGeometry(1.0, 1.0, 1.0), p)

    @pytest.mark.parametrize("p", [np.nan, np.inf])
    def test_non_finite_momentum_is_refused(self, p):
        # checked before the first segment, so an empty sequence refuses it too
        with pytest.raises(ValueError, match="^p must be finite"):
            compose_segments((), p)
        with pytest.raises(ValueError, match="^p must be finite"):
            psg_compose(PsgGeometry(1.0, 1.0, 1.0), p)

    def test_boundary_warnings_point_at_the_caller(self):
        # the packet spreads into the edge band by the last segment, short of
        # the edge strip that segment's argument shift would wrap
        grid = SpatialGrid(-32.0, 32.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        with pytest.warns(BoundaryContaminationWarning) as record:
            psg_compose(PsgGeometry(1e-3, 21.0, 12.0), psi)
        # the last segment's and the free reference's, both at this line
        assert [w.filename for w in record] == [__file__] * 2

    def test_packet_needs_narrow_width(self, spin_grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), spin_grid)
        g = PsgGeometry(0.5, 1.0, 1.0)
        with pytest.raises(PreconditionError, match="20x"):
            psg_compose(g, psi)

    def test_packet_matches_plane_wave(self):
        # long weak capacitor: shifts and spreading stay on the grid
        grid = SpatialGrid(-512.0, 512.0, 2048)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 4.0), grid)
        g = PsgGeometry(1e-3, 100.0, 1.0)
        comp = psg_compose(g, psi)
        free = free_evolve(psi, g.total_time)
        amp_dev = math.sqrt(
            float(np.sum((np.abs(comp.evolved.amps) - np.abs(free.amps)) ** 2))
            * grid.dx
        )
        assert amp_dev < 1e-6
        assert comp.relative_phase == pytest.approx(psg_phase(g), abs=1e-4)

    def test_override_flag(self, spin_grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), spin_grid)
        g = PsgGeometry(1e-4, 1.0, 1.0)
        comp = psg_compose(g, psi, override_width_check=True)
        assert comp.evolved is not None


class TestSolvePsg:
    def test_pi_target(self):
        g = solve_psg_for_phase(math.pi, v0=None, length=1.0, speed=1.0)
        assert g.v0 == pytest.approx(math.sqrt(1.5 * math.pi), rel=1e-12)
        # -pi and +pi are the same phase
        assert cmath.exp(1j * (psg_phase(g) - math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_target(self):
        g = solve_psg_for_phase(0.0, v0=None, length=1.0, speed=1.0)
        assert g.v0 == 0.0

    def test_round_trip_random_targets(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            target = rng.uniform(-2 * math.pi, 0.0)
            free = rng.choice(["v0", "length", "speed"])
            kwargs = {"v0": 1.3, "length": 1.1, "speed": 0.9, free: None}
            g = solve_psg_for_phase(target, units=NATURAL.with_mass(1.2), **kwargs)
            wrapped = math.remainder(psg_phase(g) - target, 2 * math.pi)
            assert abs(wrapped) < 1e-12

    def test_beam_mass_is_the_units_mass(self):
        # the mass argument beside units is gone: the geometry takes units.mass
        units = NATURAL.with_mass(2.0)
        g = solve_psg_for_phase(math.pi, v0=None, length=1.0, speed=1.0, units=units)
        assert g.mass == 2.0
        assert g.v0 == pytest.approx(math.sqrt(3.0 * math.pi), rel=1e-12)

    def test_exactly_one_free_parameter(self):
        with pytest.raises(ValueError):
            solve_psg_for_phase(1.0, v0=None, length=None, speed=1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"v0": None, "length": 0.0, "speed": 1.0}, "length"),
            ({"v0": None, "length": 1.0, "speed": 0.0}, "speed"),
            ({"v0": 1.0, "length": None, "speed": -1.0}, "speed"),
            ({"v0": math.inf, "length": None, "speed": 1.0}, "v0"),
            ({"v0": 1.0, "length": math.nan, "speed": None}, "length"),
        ],
    )
    def test_given_parameters_are_checked(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            solve_psg_for_phase(1.0, **kwargs)

    @pytest.mark.parametrize("free", ["v0", "length", "speed"])
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_target_is_checked(self, target, free):
        kwargs = {"v0": 1.0, "length": 1.0, "speed": 1.0, free: None}
        with pytest.raises(ValueError, match="^target must be finite$"):
            solve_psg_for_phase(target, **kwargs)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_psg_for_phase(0.0, v0=1.0, length=None, speed=1.0)
        with pytest.raises(InfeasibleError):
            solve_psg_for_phase(1.0, v0=0.0, length=1.0, speed=None)


class TestSgApply:
    def test_eigenstate_single_branch(self, spin_grid):
        sg = SgSpec(coupling=1.5, duration=0.8)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), spin_grid)
        zero = psi.with_amps(np.zeros_like(psi.amps))
        plus = SpinorPacket(psi, zero, basis="x")
        out = sg_apply(plus, sg)
        assert out.basis == "x"
        assert out.down.norm2() == 0.0
        assert mean_momentum(out.up) == pytest.approx(sg.delta_p, abs=1e-10)

    @pytest.mark.parametrize("axis", [True, np.True_])
    def test_bool_axis_is_refused(self, axis):
        with pytest.raises(ValueError, match="axis must be"):
            SgSpec(1.0, 1.0, axis=axis)

    def test_axis_reversal_flips_kicks(self, spin_grid):
        sg = SgSpec(coupling=1.5, duration=0.8, axis=-1)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), spin_grid)
        zero = psi.with_amps(np.zeros_like(psi.amps))
        plus = SpinorPacket(psi, zero, basis="x")
        out = sg_apply(plus, sg)
        assert mean_momentum(out.up) == pytest.approx(-sg.delta_p, abs=1e-10)

    def test_unpolarized_density_splits(self):
        sg = SgSpec(coupling=1.5, duration=0.8)
        out = sg_apply(SpinDensity.unpolarized(), sg)
        # the sigma_x = +1 branch is kicked by +delta_p, and comes first
        assert out.branch_momenta[0] == pytest.approx(+sg.delta_p, rel=1e-15)
        assert out.branch_momenta[1] == pytest.approx(-sg.delta_p, rel=1e-15)
        assert out.branch_probabilities() == pytest.approx((0.5, 0.5), abs=1e-12)
        # a polarized density keeps each probability with its branch
        polarized = sg_apply(SpinDensity([[0.7, 0.2], [0.2, 0.3]]), sg)
        assert polarized.branch_momenta == out.branch_momenta
        assert polarized.branch_probabilities() == pytest.approx((0.7, 0.3), abs=1e-12)

    def test_density_properties_preserved(self):
        rho = SpinDensity(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        out = sg_apply(rho, SgSpec(coupling=1.0, duration=1.0))
        m = out.matrix
        assert abs(np.trace(m).real - 1.0) < 1e-12
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(m).min() > -1e-12
        # coherences between now-distinguishable branches are gone
        assert m[0, 1] == 0.0

    def test_zero_field_identity(self):
        rho = SpinDensity(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]))
        out = sg_apply(rho, SgSpec(coupling=0.0, duration=1.0))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)
        assert out.branch_momenta == rho.branch_momenta

    def test_zero_field_packet_is_free_evolution(self, spin_grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 2.0), spin_grid)
        zero = psi.with_amps(np.zeros_like(psi.amps))
        state = SpinorPacket(psi, zero, basis="x")
        out = sg_apply(state, SgSpec(coupling=0.0, duration=1.3))
        assert l2_distance(out.up, free_evolve(psi, 1.3)) == 0.0
        assert out.down.norm2() == 0.0

    def test_from_field_coupling(self):
        sg = SgSpec.from_field(b0=2.0, duration=0.5)
        # e hbar / (2 m_e) * B0, SI values
        expected = 1.602176634e-19 * 1.054571817e-34 / (2 * 9.1093837015e-31) * 2.0
        assert sg.coupling == pytest.approx(expected, rel=1e-12)
        assert sg.delta_p == pytest.approx(expected * 0.5, rel=1e-12)


class TestSpinFlipCircuit:
    def setup_method(self):
        self.sg_up = SgSpec(coupling=1.0, duration=1.0, axis=+1)
        self.sg_down = SgSpec(coupling=1.0, duration=1.0, axis=-1)

    def test_no_psg_no_flip(self, spin_grid):
        state = z_packet(spin_grid)
        res = spin_flip_circuit(state, self.sg_up, None, self.sg_down)
        assert res.flip_fidelity == pytest.approx(0.0, abs=1e-9)
        assert res.spinor.up.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_pi_flips(self, spin_grid):
        state = z_packet(spin_grid)
        geom = solve_psg_for_phase(math.pi, v0=None, length=1.0, speed=1.0)
        res = spin_flip_circuit(state, self.sg_up, geom, self.sg_down)
        assert res.flip_fidelity == pytest.approx(1.0, abs=1e-9)
        assert res.spinor.down.norm2() == pytest.approx(1.0, abs=1e-9)

    def test_half_pi_balances_populations(self, spin_grid):
        state = z_packet(spin_grid)
        geom = solve_psg_for_phase(math.pi / 2, v0=None, length=1.0, speed=1.0)
        res = spin_flip_circuit(state, self.sg_up, geom, self.sg_down)
        pops = res.z_populations()
        assert pops[0] == pytest.approx(0.5, abs=1e-12)
        assert pops[1] == pytest.approx(0.5, abs=1e-12)
        # output x-basis amplitudes are (1, e^{i pi/2})/sqrt(2) up to phase
        chi = res.spinor.to_basis("x").spin_vector()
        ratio = chi[1] / chi[0]
        assert ratio == pytest.approx(1j, abs=1e-9)

    def test_double_pi_restores(self, spin_grid):
        state = z_packet(spin_grid)
        geom = solve_psg_for_phase(math.pi, v0=None, length=1.0, speed=1.0)
        once = spin_flip_circuit(state, self.sg_up, geom, self.sg_down)
        twice = spin_flip_circuit(once.spinor, self.sg_up, geom, self.sg_down)
        chi = twice.spinor.spin_vector()
        overlap = abs(np.vdot(np.array([1.0, 0.0]), chi)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_unitary_on_spin(self, spin_grid):
        state = z_packet(spin_grid)
        geom = solve_psg_for_phase(-1.234, v0=None, length=1.0, speed=1.0)
        res = spin_flip_circuit(state, self.sg_up, geom, self.sg_down)
        assert res.spinor.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_stage_mismatch_rejected(self, spin_grid):
        state = z_packet(spin_grid)
        with pytest.raises(BranchMismatchError):
            spin_flip_circuit(state, self.sg_up, None, SgSpec(2.0, 1.0, axis=-1))
        with pytest.raises(BranchMismatchError):
            spin_flip_circuit(state, self.sg_up, None, SgSpec(1.0, 1.0, axis=+1))

    def test_psg_of_another_mass_is_refused(self, spin_grid):
        # the phase came from psg.mass and the carrier's free flight from
        # units.mass: a mass-2 pi/2 gate ran on a mass-1 carrier
        state = z_packet(spin_grid)
        geom = PsgGeometry(2.1708037636748028, 1.0, 1.0, mass=2.0)
        with pytest.raises(ValueError, match="PSG mass 2.0 is not the carrier's mass 1.0"):
            spin_flip_circuit(state, self.sg_up, geom, self.sg_down)
        units = NATURAL.with_mass(2.0)
        res = spin_flip_circuit(state, self.sg_up, geom, self.sg_down, units)
        assert res.phase == pytest.approx(-math.pi / 2, rel=1e-12)

    def test_gate_law(self, spin_grid):
        state = z_packet(spin_grid)
        mu, nu = -2.1, -0.7
        g = {
            phi: solve_psg_for_phase(phi, v0=None, length=1.0, speed=1.0)
            for phi in (mu, nu, mu + nu)
        }
        seq = spin_flip_circuit(
            spin_flip_circuit(state, self.sg_up, g[mu], self.sg_down).spinor,
            self.sg_up,
            g[nu],
            self.sg_down,
        )
        direct = spin_flip_circuit(state, self.sg_up, g[mu + nu], self.sg_down)
        chi_a = seq.spinor.spin_vector()
        chi_b = direct.spinor.spin_vector()
        assert abs(np.vdot(chi_a, chi_b)) ** 2 == pytest.approx(1.0, abs=1e-9)
