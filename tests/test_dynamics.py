"""Tests for the two time-evolution routes and their agreement.

The RK4 march works in the lab frame on the oscillating Hamiltonian; the
spectral route diagonalizes the static rotating-frame matrix. They share no
code beyond the model catalog, so their agreement checks both at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.dynamics import rk4_solve, schrodinger_rhs, trace_via_spectral
from su4rabi.errors import ConfigurationError, NumericsError
from su4rabi.frame import resonant_drive
from su4rabi.models import (
    DriveParams,
    StateVector,
    get_model,
)

OMEGA = (1.0, 2.0, 3.0)
CHAIN_COUPLINGS = {(4, 1): 0.7, (3, 2): 0.24, (2, 1): 0.24}

MODEL_I = get_model("I")
CHAIN_DRIVE = resonant_drive(MODEL_I, OMEGA, CHAIN_COUPLINGS)


def uniform_grid(t_max, n_points):
    return np.linspace(0.0, t_max, n_points)


def zero_coupling_drive(model):
    coupling = {tr: 0.0 for tr in model.allowed}
    return resonant_drive(model, OMEGA, coupling)


class TestSchrodingerRhs:
    def test_zero_vector_is_stationary(self):
        rhs = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, 0.3, np.zeros(4, dtype=complex))
        assert np.array_equal(rhs, np.zeros(4, dtype=complex))

    def test_uncoupled_basis_state_rotates_with_its_energy(self):
        drive = zero_coupling_drive(MODEL_I)
        energies = MODEL_I.energies(OMEGA)
        for level in (1, 2, 3, 4):
            state = StateVector.basis(level)
            rhs = schrodinger_rhs(MODEL_I, drive, 1.7, state.amplitudes)
            expected = -1j * energies[level - 1] * state.amplitudes
            assert np.abs(rhs - expected).max() < 1e-15

    def test_ground_state_coupling_pattern_at_t_zero(self):
        # From level 1 the chain drive feeds levels 2 and 4 with the bare
        # coupling strengths, and the diagonal term carries |E1| = 3.
        rhs = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, 0.0, StateVector.basis(1).amplitudes)
        assert np.abs(rhs) == pytest.approx([3.0, 0.24, 0.0, 0.7], abs=1e-15)

    @given(
        st.sampled_from(["I", "II", "III", "IV", "V", "VI"]),
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8),
        st.floats(0, 20, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_norm_current_vanishes(self, model_id, reals, t):
        # d/dt sum |c|^2 = 2 Re <c, -i H c> is zero for any Hermitian H.
        model = get_model(model_id)
        drive = resonant_drive(model, OMEGA, {tr: 0.31 for tr in model.allowed})
        c = np.array(reals[:4]) + 1j * np.array(reals[4:])
        rhs = schrodinger_rhs(model, drive, t, c)
        assert abs(float(np.sum(np.conj(c) * rhs).real)) < 1e-13


class TestRk4Solve:
    def test_single_point_grid_returns_initial_state(self):
        c0 = StateVector.basis(2)
        trace, final = rk4_solve(MODEL_I, CHAIN_DRIVE, c0, np.array([0.0]))
        assert trace.populations.shape == (1, 4)
        assert trace.populations[0] == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=0)
        assert np.array_equal(final.amplitudes, c0.amplitudes)

    def test_uncoupled_state_is_stationary(self):
        drive = zero_coupling_drive(MODEL_I)
        trace, final = rk4_solve(
            MODEL_I, drive, StateVector.basis(3), uniform_grid(5.0, 5001)
        )
        expected = np.tile([0.0, 0.0, 1.0, 0.0], (5001, 1))
        assert np.abs(trace.populations - expected).max() < 1e-12
        assert final.populations() == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_two_level_limit_matches_closed_form(self):
        # With only the 2-1 field on, the chain reduces to Rabi flopping
        # between the two lowest levels at the bare coupling rate.
        kappa = 0.24
        drive = resonant_drive(
            MODEL_I, OMEGA, {(4, 1): 0.0, (3, 2): 0.0, (2, 1): kappa}
        )
        grid = uniform_grid(10.0, 10001)
        trace, _ = rk4_solve(MODEL_I, drive, StateVector.basis(1), grid)
        assert np.abs(trace.populations[:, 1] - np.sin(kappa * grid) ** 2).max() < 1e-8
        assert np.abs(trace.populations[:, 0] - np.cos(kappa * grid) ** 2).max() < 1e-8
        assert np.abs(trace.populations[:, 2:]).max() < 1e-12

    def test_fourth_order_convergence(self):
        # Halving the step should cut the error by about 2**4; allow slack
        # for the next-order term at the coarser step.
        c0 = StateVector.basis(1)

        def max_error(h):
            n = int(round(5.0 / h))
            grid = uniform_grid(5.0, n + 1)
            trace, _ = rk4_solve(MODEL_I, CHAIN_DRIVE, c0, grid)
            exact = trace_via_spectral(MODEL_I, CHAIN_DRIVE, c0, grid)
            return np.abs(trace.populations - exact.populations).max()

        ratio = max_error(0.02) / max_error(0.01)
        assert 12.0 < ratio < 20.0

    def test_norm_conserved(self):
        trace, _ = rk4_solve(
            MODEL_I, CHAIN_DRIVE, StateVector.basis(1), uniform_grid(10.0, 10001)
        )
        assert trace.max_norm_error() < 1e-10

    def test_divergent_step_raises(self):
        drive = resonant_drive(
            MODEL_I, OMEGA, {(4, 1): 1e8, (3, 2): 0.0, (2, 1): 0.0}
        )
        with pytest.raises(NumericsError):
            rk4_solve(MODEL_I, drive, StateVector.basis(1), uniform_grid(10.0, 101))

    def test_finite_norm_blowup_raises_and_names_step(self):
        # h = 25 stays finite but multiplies the norm by about 6e24
        with pytest.raises(NumericsError, match=r"h = 25\b"):
            rk4_solve(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), uniform_grid(50.0, 3))

    def test_rejects_nonuniform_grid(self):
        grid = np.array([0.0, 0.1, 0.25, 0.3])
        with pytest.raises(ConfigurationError):
            rk4_solve(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), grid)

    def test_rejects_decreasing_grid(self):
        grid = np.array([0.0, 0.2, 0.1])
        with pytest.raises(ConfigurationError):
            rk4_solve(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), grid)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            rk4_solve(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), np.array([]))

    def test_rejects_coupling_on_forbidden_transition(self):
        drive = DriveParams(
            omega=OMEGA,
            field_freq={(4, 2): 1.0, (3, 2): 1.0, (2, 1): 1.0},
            coupling={(4, 2): 0.1, (3, 2): 0.1, (2, 1): 0.1},
        )
        with pytest.raises(ConfigurationError):
            rk4_solve(MODEL_I, drive, StateVector.basis(1), uniform_grid(1.0, 11))

    def test_final_state_matches_last_trace_row(self):
        trace, final = rk4_solve(
            MODEL_I, CHAIN_DRIVE, StateVector.basis(1), uniform_grid(3.0, 3001)
        )
        assert np.abs(trace.populations[-1] - final.populations()).max() < 1e-15


class TestSpectralTrace:
    def test_single_point_grid_returns_initial_populations(self):
        trace = trace_via_spectral(
            MODEL_I, CHAIN_DRIVE, StateVector.basis(4), np.array([0.0])
        )
        assert trace.populations[0] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("model_id,level", [("I", 1), ("VI", 4), ("III", 2)])
    def test_matches_rk4_on_resonance(self, model_id, level):
        model = get_model(model_id)
        coupling = {tr: 0.2 + 0.05 * i for i, tr in enumerate(sorted(model.allowed))}
        drive = resonant_drive(model, OMEGA, coupling)
        c0 = StateVector.basis(level)
        grid = uniform_grid(10.0, 10001)
        trace, _ = rk4_solve(model, drive, c0, grid)
        exact = trace_via_spectral(model, drive, c0, grid)
        assert np.abs(trace.populations - exact.populations).max() < 1e-8

    def test_rejects_off_resonance_by_default(self):
        fields = dict(CHAIN_DRIVE.field_freq)
        fields[(4, 1)] += 0.3
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=CHAIN_COUPLINGS)
        with pytest.raises(ConfigurationError, match="resonan"):
            trace_via_spectral(MODEL_I, drive, StateVector.basis(1), uniform_grid(1.0, 11))

    def test_off_resonance_opt_in_matches_rk4(self):
        model = get_model("IV")
        coupling = {(4, 3): 0.24, (4, 1): 0.7, (2, 1): 0.24}
        base = resonant_drive(model, OMEGA, coupling)
        fields = dict(base.field_freq)
        fields[(4, 1)] += 0.3
        fields[(2, 1)] -= 0.15
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=coupling)
        c0 = StateVector.basis(4)
        grid = uniform_grid(10.0, 10001)
        trace, _ = rk4_solve(model, drive, c0, grid)
        exact = trace_via_spectral(model, drive, c0, grid, allow_nonresonant=True)
        assert np.abs(trace.populations - exact.populations).max() < 1e-8

    def test_norm_conserved_to_machine_precision(self):
        trace = trace_via_spectral(
            MODEL_I, CHAIN_DRIVE, StateVector.basis(1), uniform_grid(50.0, 5001)
        )
        assert trace.max_norm_error() < 1e-12

    def test_superposition_initial_state(self):
        c0 = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        grid = uniform_grid(8.0, 8001)
        trace, _ = rk4_solve(MODEL_I, CHAIN_DRIVE, c0, grid)
        exact = trace_via_spectral(MODEL_I, CHAIN_DRIVE, c0, grid)
        assert np.abs(trace.populations - exact.populations).max() < 1e-8


class TestBackendParity:
    def test_pure_python_twin_matches_active_backend(self):
        # A step-by-step scalar RK4 march on schrodinger_rhs is the
        # reference for the step-matrix march. Over 10**4 steps the two
        # differ by rounding only: 7.3e-13 in populations, 3.8e-13 in the
        # final state. The RK4 truncation error of this run is about 1e-11,
        # and even the 3/8-rule RK4 map sits 2.3e-12 / 2.2e-12 away, so the
        # bounds admit classic RK4 only.
        h, n_steps = 1e-3, 10000
        c = StateVector.basis(1).amplitudes.copy()
        pops_ref = np.empty((n_steps + 1, 4))
        pops_ref[0] = np.abs(c) ** 2
        for step in range(n_steps):
            t = step * h
            k1 = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, t, c)
            k2 = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, t + 0.5 * h, c + 0.5 * h * k1)
            k3 = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, t + 0.5 * h, c + 0.5 * h * k2)
            k4 = schrodinger_rhs(MODEL_I, CHAIN_DRIVE, t + h, c + h * k3)
            c = c + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            pops_ref[step + 1] = np.abs(c) ** 2

        grid = np.arange(n_steps + 1) * h
        trace, final = rk4_solve(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), grid)
        assert np.abs(trace.populations - pops_ref).max() < 2e-12
        assert np.abs(final.amplitudes - c).max() < 1e-12
