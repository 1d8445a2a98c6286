"""Tests for the two time-evolution routes and their agreement.

The RK4 march works in the lab frame on the oscillating Hamiltonian; the
spectral route diagonalizes the static rotating-frame matrix. They share no
code beyond the model catalog, so their agreement checks both at once.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings, target
from hypothesis import strategies as st

from su4rabi import dynamics, frame, models
from su4rabi.dynamics import (
    _PHASE_TOL,
    _UNIT_ROUNDOFF,
    _TABLE_MIN_POINTS,
    _anchored_planes,
    _checked_grid,
    _offset_factors,
    _pair_table,
    _plane_blocks,
    _pointwise_planes,
    _rk4_step_matrices,
    rk4_solve,
    rk4_solve_many,
    solve_frame,
    trace_via_spectral,
)
from su4rabi.errors import ConfigurationError, NumericsError
from su4rabi.frame import check_time_independence, frame_generator, resonant_drive
from su4rabi.models import (
    DriveParams,
    PopulationTrace,
    StateVector,
    catalog,
    get_model,
    hamiltonian_t,
    hamiltonian_table,
    row_of,
    to_level_order,
    to_row_order,
)

OMEGA = (1.0, 2.0, 3.0)
CHAIN_COUPLINGS = {(4, 1): 0.7, (3, 2): 0.24, (2, 1): 0.24}

MODEL_I = get_model("I")
CHAIN_DRIVE = resonant_drive(MODEL_I, OMEGA, CHAIN_COUPLINGS)
BASIS_STATES = [StateVector.basis(level) for level in (1, 2, 3, 4)]
SUPERPOSITIONS = [
    StateVector(np.array([0.6, 0.48j, 0.0, 0.64])),
    StateVector(np.array([0.5, -0.5j, 0.5, 0.5j])),
    StateVector(np.array([0.0, 0.8, 0.0, -0.6j])),
]


def schrodinger_rhs(model, drive, t, amplitudes):
    """-i H(t) c for a level-ordered amplitude vector (any norm).

    The scalar reference for the RK4 route; ``rk4_solve`` builds whole RK4
    step matrices from samples of H(t) instead of calling it per stage.
    """
    c_rows = to_row_order(np.asarray(amplitudes, dtype=complex))
    return to_level_order(-1j * (hamiltonian_t(model, drive, t) @ c_rows))


def uniform_grid(t_max, n_points):
    return np.linspace(0.0, t_max, n_points)


def _phase_planes(grid, eigenvalues):
    """The (8, n) phase planes of a grid from ``_checked_grid``, its blocks formed side by side."""
    return np.hstack([planes() for _, planes in _plane_blocks(grid, eigenvalues)])


def _table_planes(t_grid, eigenvalues):
    """The angle addition table of a whole uniform grid as one product:
    anchors t[::b] and offsets t[:b] - t[0], b = isqrt(n)."""
    b = math.isqrt(t_grid.size)
    right = _offset_factors(t_grid[:b] - t_grid[0], eigenvalues)
    return _anchored_planes(t_grid[::b], right, eigenvalues, t_grid.size)


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
        assert np.array_equal(final, c0.amplitudes)

    def test_uncoupled_state_is_stationary(self):
        drive = zero_coupling_drive(MODEL_I)
        trace, final = rk4_solve(
            MODEL_I, drive, StateVector.basis(3), uniform_grid(5.0, 5001)
        )
        expected = np.tile([0.0, 0.0, 1.0, 0.0], (5001, 1))
        assert np.abs(trace.populations - expected).max() < 1e-12
        assert np.abs(final) ** 2 == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_uncoupled_drift_is_the_predicted_amplification(self):
        # with H = diag(E) constant, one RK4 step multiplies basis state j by
        # R(-i y), y = h E_j, and |R(iy)|^2 = 1 - y^6/72 + y^8/576 exactly, so
        # after N steps its norm has drifted by 1 - |R|^(2N); two-sided, so a
        # wrong stage weight moves the leading y^6 term
        n_steps = 50_000
        grid = uniform_grid(500.0, n_steps + 1)
        h = float(grid[1] - grid[0])
        results = rk4_solve_many(MODEL_I, zero_coupling_drive(MODEL_I), BASIS_STATES, grid)
        for energy, (trace, _) in zip(MODEL_I.energies(OMEGA), results):
            y = h * energy
            predicted = -math.expm1(n_steps * math.log1p(-(y**6) / 72 + y**8 / 576))
            drift = 1.0 - float(trace.populations[-1].sum())
            assert abs(drift - predicted) <= 2 * n_steps * _UNIT_ROUNDOFF

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

    def test_march_is_power_of_frame_step_map(self):
        # With K the frame generator in row order, H(t) = e^{iKt} H(0)
        # e^{-iKt}, so the RK4 step map from t_n = n h is M_n = e^{iK t_n}
        # M_0 e^{-iK t_n}, and d_n = e^{-iK t_n} c_n obeys d_{n+1} = A d_n
        # with A = diag(e^{-iKh}) M_0. c_n and d_n have the same
        # populations, so one step map, built column by column from scalar
        # RK4 steps on schrodinger_rhs, predicts the whole march. Measured
        # 2.1e-12 over 5e4 steps; the opposite sign of K is off by 0.64.
        model = get_model("II")
        coupling = {(4, 3): 0.24, (3, 1): 0.7, (2, 1): 0.24}
        fields = dict(resonant_drive(model, OMEGA, coupling).field_freq)
        fields[(3, 1)] += 0.3
        fields[(2, 1)] -= 0.15
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=coupling)
        h, n_steps = 1e-3, 50000

        m0 = np.empty((4, 4), dtype=complex)
        for col in range(4):
            c = to_level_order(np.eye(4, dtype=complex)[col])
            k1 = schrodinger_rhs(model, drive, 0.0, c)
            k2 = schrodinger_rhs(model, drive, 0.5 * h, c + 0.5 * h * k1)
            k3 = schrodinger_rhs(model, drive, 0.5 * h, c + 0.5 * h * k2)
            k4 = schrodinger_rhs(model, drive, h, c + h * k3)
            m0[:, col] = to_row_order(c + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
        k_rows = to_row_order(frame_generator(model, drive))
        a = np.exp(-1j * k_rows * h)[:, None] * m0

        c0 = StateVector(np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))
        d = to_row_order(c0.amplitudes)
        predicted = np.empty((n_steps + 1, 4))
        predicted[0] = np.abs(d) ** 2
        for n in range(n_steps):
            d = a @ d
            predicted[n + 1] = np.abs(d) ** 2

        trace, _ = rk4_solve(model, drive, c0, np.arange(n_steps + 1) * h)
        assert np.abs(trace.populations - predicted[:, ::-1]).max() < 1e-10

    def test_norm_conserved(self):
        trace, _ = rk4_solve(
            MODEL_I, CHAIN_DRIVE, StateVector.basis(1), uniform_grid(10.0, 10001)
        )
        assert trace.max_norm_error() < 1e-10

    def test_divergent_step_raises(self):
        # h kappa = 1e7: each step multiplies the norm by about 4e26, so the
        # states and the group products overflow to inf and nan within the
        # march; that must surface as the non-finite error, not a warning
        drive = resonant_drive(
            MODEL_I, OMEGA, {(4, 1): 1e8, (3, 2): 0.0, (2, 1): 0.0}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="non-finite"):
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

    def test_rejects_overflowing_grid_spacing(self):
        # both times are finite, but their difference overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="grid spacing"):
                rk4_solve(
                    MODEL_I, CHAIN_DRIVE, StateVector.basis(1), [-1.5e308, 1.5e308]
                )

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
        assert np.abs(trace.populations[-1] - np.abs(final) ** 2).max() < 1e-15

    def test_integer_couplings_march_as_floats(self):
        # the call scales its table by the step in place, so integer couplings
        # must already be floats there; they give the float couplings' bits
        whole = resonant_drive(MODEL_I, OMEGA, {tr: 1 for tr in CHAIN_COUPLINGS})
        floats = resonant_drive(MODEL_I, OMEGA, {tr: 1.0 for tr in CHAIN_COUPLINGS})
        grid = uniform_grid(3.0, 301)
        runs = [rk4_solve(MODEL_I, drive, StateVector.basis(1), grid)[0].populations
                for drive in (whole, floats)]
        assert np.array_equal(*runs)


OVERFLOW = r"^time grid spacing overflows to inf \(max\|t\| = 1\.500e\+308\); a step between two grid times must be a finite float$"
NOT_INCREASING = r"^time grid must be strictly increasing$"
NOT_UNIFORM = r"^time grid must be uniform for fixed-step RK4$"
# A step below 1 whose relative tolerance 1e-9 |h| is exactly 2^-40
# (1e9 = 2^9 1953125, so H is exact). The grids below start at -T, so the
# rounding allowance 8u max|t| = 2^-50 T is 2^-40 as well; their times lie
# in [512, 1024] on multiples of 2^-43, so every time and spacing is exact.
H = 1e9 * 2.0**-40
TOL = 2.0**-40
T = 1024.0
EDGE = 2.0 * TOL  # 1e-9 |h| + 8u max|t|


class TestRk4GridCheck:
    """Each grid outcome of ``rk4_solve``, with its exception and message
    (the one-point grid: ``TestRk4Solve``).

    The uniformity test is two-sided: a spacing off from the first, h, by
    exactly 1e-9 |h| + 8u max|t| passes, and the next float past it fails,
    on either side of h, for steps below and above 1. Every spacing below
    is exact in binary, so the grids probe the comparison itself.
    """

    @staticmethod
    def solve(grid, drive=CHAIN_DRIVE):
        return rk4_solve(MODEL_I, drive, StateVector.basis(1), np.array(grid))

    def test_spacing_above_h_by_the_tolerance_passes(self):
        # h = H, then H + EDGE
        assert 1e-9 * H == TOL and 8.0 * 2.0**-53 * T == TOL
        trace, _ = self.solve([-T, H - T, 2.0 * H - T + EDGE])
        assert trace.populations.shape == (3, 4)

    def test_spacing_one_float_further_above_fails(self):
        with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
            self.solve([-T, H - T, np.nextafter(2.0 * H - T + EDGE, 1.0)])

    def test_spacing_below_h_by_the_tolerance_passes(self):
        # h = H, then H - EDGE
        trace, _ = self.solve([-T, H - T, 2.0 * H - T - EDGE])
        assert trace.populations.shape == (3, 4)

    def test_spacing_one_float_further_below_fails(self):
        with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
            self.solve([-T, H - T, np.nextafter(2.0 * H - T - EDGE, -T)])

    def test_allowance_grows_with_max_t(self):
        # from -2T the allowance is 2^-39, so h + 3 TOL passes where it
        # failed from -T; these times lie on multiples of 2^-42
        trace, _ = self.solve([-2.0 * T, H - 2.0 * T, 2.0 * H - 2.0 * T + 3.0 * TOL])
        assert trace.populations.shape == (3, 4)
        with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
            self.solve([-2.0 * T, H - 2.0 * T, np.nextafter(2.0 * H - 2.0 * T + 3.0 * TOL, 1.0)])

    def test_offset_linspace_grid_passes(self):
        # rounding alone spreads these spacings by 1.2e-7 |h|; an absolute
        # 1e-9 tolerance took this grid, and so must the allowance
        grid = np.linspace(1e6, 1e6 + 1.0, 1001)
        spacings = np.diff(grid)
        assert np.abs(spacings - spacings[0]).max() > 1e-7 * spacings[0]
        trace, _ = self.solve(grid)
        assert trace.populations.shape == (1001, 4)

    def test_alternating_small_spacings_fail(self):
        # spacings 1e-12 and 5e-10 in turn, with every frequency scaled by
        # 1e9: an absolute tolerance of 1e-9 took this grid as uniform, and
        # the march at h = 1e-12 ended 0.9989 away from trace_via_spectral
        drive = resonant_drive(
            MODEL_I, tuple(1e9 * w for w in OMEGA),
            {tr: 1e9 * k for tr, k in CHAIN_COUPLINGS.items()},
        )
        grid = np.concatenate(([0.0], np.cumsum(np.tile([1e-12, 5e-10], 50))))
        with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
            self.solve(grid, drive)

    def test_outcome_is_the_same_under_power_of_two_rescaling(self):
        # t -> 2^k t scales every spacing and the tolerance exactly; H(t) = 0
        # keeps the march stable at any step
        drive = resonant_drive(MODEL_I, (0.0, 0.0, 0.0), {tr: 0.0 for tr in MODEL_I.allowed})
        edges = (2.0 * H - T + EDGE, 2.0 * H - T - EDGE)
        for k in range(-60, 61):
            for last in edges:
                trace, _ = self.solve([math.ldexp(t, k) for t in (-T, H - T, last)], drive)
                assert np.array_equal(trace.populations[-1], [1.0, 0.0, 0.0, 0.0])
            for last in (np.nextafter(edges[0], 1.0), np.nextafter(edges[1], -T)):
                with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
                    self.solve([math.ldexp(t, k) for t in (-T, H - T, last)], drive)

    def test_tolerance_scales_with_a_large_step(self):
        # h = 1e9 from -2^50: 1e-9 |h| and 8u max|t| are 1.0 each, and the
        # times lie on multiples of 1/8; H(t) = 0 keeps the march stable
        drive = resonant_drive(MODEL_I, (0.0, 0.0, 0.0), {tr: 0.0 for tr in MODEL_I.allowed})
        start = -(2.0**50)
        edges = (start + 2e9 + 2.0, start + 2e9 - 2.0)
        for last in edges:
            trace, _ = self.solve([start, start + 1e9, last], drive)
            assert np.array_equal(trace.populations[-1], [1.0, 0.0, 0.0, 0.0])
        for last in (np.nextafter(edges[0], np.inf), np.nextafter(edges[1], start)):
            with pytest.raises(ConfigurationError, match=NOT_UNIFORM):
                self.solve([start, start + 1e9, last], drive)

    def test_two_point_grid_is_one_step(self):
        trace, _ = self.solve([0.0, 1e-3])
        assert trace.times.tolist() == [0.0, 1e-3]

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [0.0, -1.0]])
    def test_two_point_grid_must_increase(self, grid):
        with pytest.raises(ConfigurationError, match=NOT_INCREASING):
            self.solve(grid)

    def test_interior_repeated_time(self):
        with pytest.raises(ConfigurationError, match=NOT_INCREASING):
            self.solve([0.0, 0.125, 0.125, 0.25])

    def test_decreasing_step(self):
        # the decrease is reported before the non-uniformity it also causes
        with pytest.raises(ConfigurationError, match=NOT_INCREASING):
            self.solve([0.0, 0.125, 0.25, 0.1875])

    @pytest.mark.parametrize(
        "grid", [[-1.5e308, 1.5e308], [1.5e308, -1.5e308], [0.0, 1.0, -1.5e308, 1.5e308]]
    )
    def test_overflowing_spacing(self, grid):
        # an overflow to -inf is reported as an overflow, before the decrease
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=OVERFLOW):
                self.solve(grid)


def complex_step_maps(model, drive, times, h):
    """Complex 4x4 RK4 step maps of -i H(t), stage by stage from hamiltonian_t.

    The reference form of the real 8x8 build: the same classic RK4 stages,
    in complex arithmetic on samples of hamiltonian_t.
    """
    stage_times = times + np.array([[0.0], [0.5 * h], [h]])
    k1, a_mid, a_end = -1j * hamiltonian_t(model, drive, stage_times)
    k2 = a_mid + (0.5 * h) * (a_mid @ k1)
    k3 = a_mid + (0.5 * h) * (a_mid @ k2)
    k4 = a_end + h * (a_end @ k3)
    return np.eye(4) + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def real_blocks(a):
    """The real 8x8 form [[Re A, -Im A], [Im A, Re A]] of complex 4x4 matrices."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


class TestTwoLevelMarch:
    """The blocked prefix-product march against one step map at a time.

    The counts cover a single step, groups that do not fill a square, and
    both sides of the 4096-step block boundary. The reference applies the
    complex step maps one by one.
    """

    @pytest.mark.parametrize(
        "n_steps", [1, 2, 3, 4, 5, 99, 100, 101, 4095, 4096, 4097, 8193]
    )
    def test_matches_per_step_loop(self, n_steps):
        model = get_model("II")
        coupling = {(4, 3): 0.24, (3, 1): 0.7, (2, 1): 0.24}
        drive = resonant_drive(model, OMEGA, coupling)
        c0 = StateVector(np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))
        grid = 0.3 + np.arange(n_steps + 1) * 1e-2
        # the step and step times rk4_solve derives from the grid
        h = grid[1] - grid[0]
        times = grid[0] + np.arange(n_steps) * h

        states = np.empty((n_steps + 1, 4), dtype=complex)
        states[0] = to_row_order(c0.amplitudes)
        for n, step in enumerate(complex_step_maps(model, drive, times, h)):
            states[n + 1] = step @ states[n]

        trace, final = rk4_solve(model, drive, c0, grid)
        assert np.abs(trace.populations - np.abs(states[:, ::-1]) ** 2).max() < 1e-13
        assert np.abs(final - to_level_order(states[-1])).max() < 1e-13


def off_resonant_drive(model, detunings=(0.3, -0.15, 0.1), couplings=(0.7, 0.24, 0.5)):
    """``couplings`` and the fields' ``detunings`` from resonance, both in row order.

    Zero detunings give the resonant drive itself: adding 0.0 to a field is exact.
    """
    transitions = model.sorted_transitions()
    coupling = dict(zip(transitions, couplings))
    fields = dict(resonant_drive(model, OMEGA, coupling).field_freq)
    for tr, offset in zip(transitions, detunings):
        fields[tr] += offset
    return DriveParams(omega=OMEGA, field_freq=fields, coupling=coupling)


RESONANT = (0.0, 0.0, 0.0)
RAMP_COUPLINGS = (0.2, 0.3, 0.4)


class TestBlockMarch:
    """``rk4_solve_many`` marches an (8, k) block of states through one build
    of the step maps; each column must lie within 1e-13 of its own march.

    The step counts are those of ``TestTwoLevelMarch``: a single step,
    groups that do not fill a square, and both sides of the block boundary.
    """

    STATES = [StateVector.basis(level) for level in (1, 2, 3, 4)] + [
        StateVector(np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)),
        StateVector(np.array([0.6, 0.0, 0.48 - 0.64j, 0.0], dtype=complex)),
    ]

    @pytest.mark.parametrize("n_steps", [1, 2, 99, 100, 4095, 4096, 4097, 8193])
    def test_columns_match_single_marches(self, n_steps):
        model = get_model("IV")
        drive = off_resonant_drive(model)
        grid = 0.3 + np.arange(n_steps + 1) * 5e-3
        marched = rk4_solve_many(model, drive, self.STATES, grid)
        assert len(marched) == len(self.STATES)
        for c0, (trace, final) in zip(self.STATES, marched):
            single_trace, single_final = rk4_solve(model, drive, c0, grid)
            assert np.array_equal(trace.times, single_trace.times)
            assert np.abs(trace.populations - single_trace.populations).max() < 1e-13
            assert np.abs(final - single_final).max() < 1e-13

    def test_empty_state_list_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="at least one initial state"):
            rk4_solve_many(MODEL_I, CHAIN_DRIVE, [], uniform_grid(1.0, 11))

    def test_each_column_has_its_own_drift_check(self):
        # H = diag(0, -5, 5, 0) at h = 0.5: levels 1 and 4 stay exactly put,
        # level 2 loses most of its norm, and the error names that state
        drive = resonant_drive(MODEL_I, (0.0, 0.0, 5.0), {tr: 0.0 for tr in MODEL_I.allowed})
        grid = uniform_grid(5.0, 11)
        states = [StateVector.basis(1), StateVector.basis(4)]
        for trace, final in rk4_solve_many(MODEL_I, drive, states, grid):
            assert trace.max_norm_error() == 0.0
        with pytest.raises(NumericsError, match=r"norm of initial state 1 drifted .* h = 0\.5;"):
            rk4_solve_many(MODEL_I, drive, [StateVector.basis(1), StateVector.basis(2)], grid)


class TestUnitarityDefect:
    """RK4 at a coarse step: the march's map U_N is not unitary.

    U_N's columns are the final states of the four basis starts, and its
    defect max|sigma_i^2 - 1| bounds the norm drift of every unit start:
    |U_N c|^2 = c^H U_N^H U_N c lies between the smallest and the largest
    sigma_i^2. The right singular vector of the extreme sigma_i attains it.
    """

    @pytest.mark.parametrize("detunings", [RESONANT, (0.3, -0.15, 0.1)])
    @pytest.mark.parametrize("model_id", ["I", "II", "III", "IV", "V", "VI"])
    def test_defect_bounds_every_drift_and_is_attained(self, model_id, detunings):
        # h = 1e-2 leaves defects of 2.2e-9 (III) to 1.9e-7 (V); marching the
        # singular vector reproduces its sigma^2 - 1 to within 0.035 N u
        # (N = 1000 steps, u = 2^-53), and N u is the rounding allowance
        model = get_model(model_id)
        drive = off_resonant_drive(model, detunings)
        grid = uniform_grid(10.0, 1001)
        allowance = (grid.size - 1) * _UNIT_ROUNDOFF
        finals = [final for _, final in rk4_solve_many(model, drive, BASIS_STATES, grid)]
        _, sigma, right = np.linalg.svd(np.column_stack(finals))
        deviations = sigma**2 - 1.0
        extreme = int(np.argmax(np.abs(deviations)))
        defect = abs(float(deviations[extreme]))
        assert 1e-9 < defect < 1e-6
        for final in finals:
            assert abs(float(np.vdot(final, final).real) - 1.0) <= defect + allowance
        start = StateVector(right[extreme].conj())
        ((_, final),) = rk4_solve_many(model, drive, [start], grid)
        drift = abs(float(np.vdot(final, final).real) - 1.0)
        assert abs(drift - defect) <= allowance


class TestGeneratorTable:
    """-i H(t) sampled as real 8x8 blocks from the generator table."""

    @pytest.mark.parametrize("model_id", ["I", "II", "III", "IV", "V", "VI"])
    def test_samples_are_blocks_of_hamiltonian_t(self, model_id):
        # every sample entry is one nonzero product, so no rounding separates
        # the GEMM from the complex matrix
        model = get_model(model_id)
        drive = off_resonant_drive(model)
        h = 1e-2
        times = 0.3 + np.arange(50) * h
        stage_times = times + np.array([[0.0], [0.5 * h], [h]])
        samples = hamiltonian_table(model, drive).sample(stage_times, out=np.empty((3, 50, 8, 8)))
        literal = np.empty(stage_times.shape + (4, 4), dtype=complex)
        literal[...] = np.diag(model.energies(drive.omega)[::-1])
        for a, b in model.allowed:
            entry = drive.coupling[(a, b)] * np.exp(-1j * drive.field_freq[(a, b)] * stage_times)
            literal[..., row_of(a), row_of(b)] = entry
            literal[..., row_of(b), row_of(a)] = np.conj(entry)
        assert samples.shape == (3, 50, 8, 8)
        assert np.array_equal(samples, real_blocks(-1j * literal))
        assert np.array_equal(samples, real_blocks(-1j * hamiltonian_t(model, drive, stage_times)))

    @pytest.mark.parametrize("model_id", ["I", "II", "III", "IV", "V", "VI"])
    def test_step_maps_match_complex_build(self, model_id):
        # the real build from the step-scaled table and the complex build
        # differ only in rounding: measured 2.6e-18 to 6.9e-18 on these maps,
        # whose diagonal is close to 1; the bound stays below one ulp of that
        # diagonal (2.2e-16); the work buffer, larger than needed, starts as
        # NaN, so no stale entry may reach the maps
        model = get_model(model_id)
        drive = off_resonant_drive(model)
        h = 1e-2
        times = 0.3 + np.arange(200) * h
        table = hamiltonian_table(model, drive)
        table.blocks[0] *= h
        table.kappa[:] *= h
        maps = _rk4_step_matrices(table, times, h, np.full(6 * 64 * 256, np.nan))
        reference = real_blocks(complex_step_maps(model, drive, times, h))
        assert np.abs(maps - reference).max() < 1e-16


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


def offset_fields(drive, offset):
    """``drive`` with every field frequency raised by ``offset``."""
    fields = {tr: w + offset for tr, w in drive.field_freq.items()}
    return DriveParams(omega=drive.omega, field_freq=fields, coupling=drive.coupling)


def scaled(drive, k):
    """``drive`` with every splitting, field and coupling times 2^k."""
    return DriveParams(
        omega=tuple(math.ldexp(w, k) for w in drive.omega),
        field_freq={tr: math.ldexp(w, k) for tr, w in drive.field_freq.items()},
        coupling={tr: math.ldexp(v, k) for tr, v in drive.coupling.items()},
    )


class TestResonanceRule:
    """``solve_frame`` takes a drive as resonant when
    max|D_ab| <= 1e-12 max_ab max(|E_a - E_b|, |w_ab|)."""

    def test_a_small_scale_detuning_is_refused(self):
        # fields off by 0.1 2^-40, about 9e-14: an absolute 1e-12 took this
        # drive for a resonant one
        drive = scaled(offset_fields(CHAIN_DRIVE, 0.1), -40)
        with pytest.raises(ConfigurationError, match="times the largest level gap or field"):
            solve_frame(MODEL_I, drive)
        solve_frame(MODEL_I, drive, allow_nonresonant=True)

    # model I's largest level gap is 4 at OMEGA, so the rule admits a
    # detuning of up to 4e-12: 2e-12 is inside, 8e-12 outside
    @pytest.mark.parametrize(
        "offset, resonant", [(0.0, True), (2e-12, True), (8e-12, False), (0.1, False)]
    )
    def test_the_verdict_is_the_same_under_power_of_two_rescaling(self, offset, resonant):
        base = offset_fields(CHAIN_DRIVE, offset)
        for k in range(-60, 61):
            drive = scaled(base, k)
            if resonant:
                solve_frame(MODEL_I, drive)
            else:
                with pytest.raises(ConfigurationError, match="off resonance"):
                    solve_frame(MODEL_I, drive)

    def test_an_all_zero_drive_is_resonant(self):
        drive = resonant_drive(MODEL_I, (0.0, 0.0, 0.0), {tr: 0.0 for tr in MODEL_I.allowed})
        assert solve_frame(MODEL_I, drive).frame.is_resonant()

    def test_an_overflowing_level_gap_is_not_resonant(self):
        # E3 - E2 = 2e308 overflows; inf <= 1e-12 inf must not pass
        drive = DriveParams(
            omega=(1.0, 1.0, 1e308),
            field_freq={tr: 1.0 for tr in MODEL_I.allowed},
            coupling=CHAIN_COUPLINGS,
        )
        with pytest.raises(ConfigurationError, match="off resonance"):
            solve_frame(MODEL_I, drive)


unit_states = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).filter(lambda z: np.linalg.norm(z) > 0.1).map(
    lambda z: StateVector(np.array(z) / np.linalg.norm(z))
)


class TestFrameSolution:
    @pytest.mark.parametrize("grid", [
        uniform_grid(20.0, 201),  # one cos and one sin per value
        uniform_grid(50.0, 2001),  # the angle-addition table
        np.linspace(-13.0, 37.0, 3001),  # the table, on a grid crossing zero
    ], ids=["pointwise", "table", "zero-crossing"])
    @pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
    @given(
        mid=st.sampled_from([m.id.value for m in catalog()]),
        detunings=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
        states=st.lists(unit_states, min_size=0, max_size=4),
    )
    @example(mid="I", detunings=[0.0, 0.0, 0.0], states=[])
    @settings(max_examples=30, deadline=None)
    def test_states_evaluated_together_match_separate_traces(
        self, grid, as_generator, mid, detunings, states
    ):
        # the phase planes and one batched product serve every state; each
        # state's populations and amplitudes must still be bit for bit those
        # of its own single-state call, whether the states come as a list or
        # a generator, and no states give no results
        model = get_model(mid)
        drive = off_resonant_drive(model, detunings, RAMP_COUPLINGS)
        solution = solve_frame(model, drive, allow_nonresonant=True)

        def given_states():
            return (c0 for c0 in states) if as_generator else states

        pops = solution.populations(given_states(), grid)
        amps = solution.amplitudes(given_states(), grid)
        assert len(pops) == len(amps) == len(states)
        for c0, together, amplitudes in zip(states, pops, amps):
            alone = trace_via_spectral(model, drive, c0, grid, allow_nonresonant=True)
            assert np.array_equal(together, alone.populations)
            (amplitudes_alone,) = solution.amplitudes([c0], grid)
            assert np.array_equal(amplitudes, amplitudes_alone)

    def test_phase_overflow_raises(self):
        drive = resonant_drive(MODEL_I, OMEGA, {(4, 1): 1e308, (3, 2): 0.24, (2, 1): 0.24})
        solution = solve_frame(MODEL_I, drive)
        state = [StateVector.basis(1)]
        # 2^-53 * 1e308 * 1e-300 = 1.1e-8 is below the phase limit
        (amps,) = solution.amplitudes(state, np.array([0.0, 1e-300]))
        assert np.all(np.isfinite(amps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match=r"1\.000e\+308 times max\|t\| = 2\.000e\+00"):
                solution.amplitudes(state, np.array([0.0, 2.0]))

    def test_phase_limit_is_two_sided(self):
        # the limit sits where 2^-53 max|L| max|t| reaches 1e-6, on both sides
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        lam_abs = float(np.abs(solution.eigensystem.eigenvalues).max())
        t_limit = _PHASE_TOL / (_UNIT_ROUNDOFF * lam_abs)
        state = [StateVector.basis(1)]
        (amps,) = solution.amplitudes(state, np.array([0.0, 0.999 * t_limit]))
        assert np.all(np.isfinite(amps))
        with pytest.raises(NumericsError, match="lose accuracy") as exc:
            solution.amplitudes(state, np.array([0.0, 1.001 * t_limit]))
        assert f"max|eigenvalue| = {lam_abs:.3e}" in str(exc.value)
        assert f"max|t| = {1.001 * t_limit:.3e}" in str(exc.value)

    def test_phase_limit_reads_the_whole_grid(self):
        # a large time between small end points still counts, and so does a
        # negative one
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        for grid in ([0.0, 1e17, 1.0], [0.0, -1e17, 1.0]):
            with pytest.raises(NumericsError, match=r"max\|t\| = 1\.000e\+17"):
                solution.amplitudes([StateVector.basis(1)], np.array(grid))

    def test_rejects_non_finite_grid(self):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        for bad in (np.nan, np.inf, -np.inf):
            for grid in ([0.0, bad], [0.0, bad, 1.0], [bad, 0.0]):
                with pytest.raises(ConfigurationError, match="finite"):
                    solution.amplitudes([StateVector.basis(1)], np.array(grid))

    def test_rejects_bad_grid(self):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        for grid in (np.array([]), np.zeros((2, 2))):
            with pytest.raises(ConfigurationError, match="non-empty 1-d"):
                solution.amplitudes([StateVector.basis(1)], grid)


def outcome(route, model, drive, c0, grid):
    """The populations a route gives, or the class of the error it raises."""
    try:
        if route == "rk4":
            trace, _ = rk4_solve(model, drive, c0, grid)
        else:
            trace = trace_via_spectral(model, drive, c0, grid, allow_nonresonant=True)
    except (ConfigurationError, NumericsError) as exc:
        return type(exc)
    return trace.populations


class TestPowerOfTwoRescaling:
    """H -> 2^k H with t -> 2^-k t leaves every product of an energy and a
    time unchanged, so both routes must give the very same bits, and a
    refusal must stay a refusal of the same class."""

    @given(
        mid=st.sampled_from([m.id.value for m in catalog()]),
        detunings=st.one_of(
            st.just(list(RESONANT)),
            st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
        ),
        couplings=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        c0=st.one_of(st.sampled_from(BASIS_STATES), unit_states),
        t_max=st.floats(1e-3, 50.0),
        points=st.integers(2, 201),
        k=st.integers(-1000, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_both_routes_are_exact_under_rescaling(
        self, mid, detunings, couplings, c0, t_max, points, k
    ):
        model = get_model(mid)
        drive = off_resonant_drive(model, detunings, couplings)
        grid = uniform_grid(t_max, points)
        for route in ("rk4", "spectral"):
            base = outcome(route, model, drive, c0, grid)
            rescaled = outcome(route, model, scaled(drive, k), c0, np.ldexp(grid, -k))
            event(f"{route}: {base.__name__ if isinstance(base, type) else 'populations'}")
            if isinstance(base, type):
                assert rescaled is base
            else:
                assert not isinstance(rescaled, type), rescaled
                assert np.array_equal(rescaled, base)


class TestBasisPopulations:
    @pytest.mark.parametrize("grid,table", [
        (np.array([0.7]), False),
        (uniform_grid(20.0, 101), False),
        (uniform_grid(50.0, 2001), True),
        (uniform_grid(50.0, 5001), True),
        (np.linspace(-13.0, 37.0, 3001), True),
    ])
    @pytest.mark.parametrize("detunings", [RESONANT, (0.3, -0.15, 0.05)])
    @pytest.mark.parametrize("mid", ["I", "II", "III", "IV", "V", "VI"])
    def test_each_start_matches_the_per_state_populations(self, mid, detunings, grid, table):
        # the pair kernel behind max_population_gap holds every basis start:
        # level i from start j is row (min, max) of its ten-pair table, bit
        # for bit the per-state kernel's, on either kind of phase planes
        model = get_model(mid)
        drive = off_resonant_drive(model, detunings, RAMP_COUPLINGS)
        solution = solve_frame(model, drive, allow_nonresonant=any(detunings))
        lam = solution.eigensystem.eigenvalues
        assert _checked_grid(grid)[2] == table
        pairs = np.triu_indices(4)
        row = np.empty((4, 4), dtype=np.intp)
        row[pairs] = row[pairs[::-1]] = np.arange(10)
        grid_check = _checked_grid(grid)
        table_rows = _pair_table(_phase_planes(grid_check, lam), solution._back(grid_check),
                                 np.empty((2, 10, grid.size)), pairs)
        for start, pops in enumerate(solution.populations(BASIS_STATES, grid)):
            assert pops.shape == (grid.size, 4)
            assert np.array_equal(table_rows[row[start]].T, pops)


class TestMaxPopulationGap:
    @pytest.mark.parametrize("levels", list(itertools.permutations((1, 2, 3, 4))))
    @pytest.mark.parametrize("points", [101, 2001])
    def test_gap_is_the_maximum_over_sixteen_columns(self, points, levels):
        # any relabelling, between two different configurations: the ten
        # reciprocal pairs give the maximum over every (level, start) column
        # of the per-state kernel, bit for bit
        grid = uniform_grid(20.0, points)
        mine = solve_frame(MODEL_I, CHAIN_DRIVE)
        model = get_model("IV")
        other = solve_frame(model, off_resonant_drive(model), allow_nonresonant=True)
        ours = mine.populations(BASIS_STATES, grid)
        theirs = other.populations(BASIS_STATES, grid)
        expected = max(
            float(np.abs(ours[j][:, i] - theirs[levels[j] - 1][:, levels[i] - 1]).max())
            for i in range(4)
            for j in range(4)
        )
        assert mine.max_population_gap(other, levels, grid) == expected

    def test_a_solution_against_itself_is_exactly_zero(self):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        assert solution.max_population_gap(solution, (1, 2, 3, 4), uniform_grid(20.0, 2001)) == 0.0

    @pytest.mark.parametrize("levels", [(1, 2, 3), (1, 1, 3, 4), (0, 1, 2, 3), (1, 2, 3, 5)])
    def test_rejects_a_relabelling_that_is_not_a_permutation(self, levels):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        with pytest.raises(ConfigurationError, match="permutation of 1..4"):
            solution.max_population_gap(solution, levels, uniform_grid(20.0, 101))

    @pytest.mark.parametrize("grid,error", [
        (np.array([]), ConfigurationError),
        (np.zeros((2, 2)), ConfigurationError),
        (np.array([0.0, np.nan]), ConfigurationError),
        (np.array([0.0, -np.inf, 1.0]), ConfigurationError),
        (np.array([0.0, 1e17, 1.0]), NumericsError),
        (np.array([0.0, -1e17]), NumericsError),
    ])
    def test_refuses_what_populations_refuses(self, grid, error):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        with pytest.raises(error) as expected:
            solution.populations([StateVector.basis(1)], grid)
        with pytest.raises(error) as raised:
            solution.max_population_gap(solution, (1, 2, 3, 4), grid)
        assert str(raised.value) == str(expected.value)


class TestReciprocity:
    @given(
        st.sampled_from([m.id.value for m in catalog()]),
        st.lists(st.floats(0.01, 2.0), min_size=3, max_size=3),
        st.just(RESONANT) | st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
        st.sampled_from([101, 2001]),
    )
    @settings(max_examples=200, deadline=None)
    def test_per_state_populations_are_reciprocal(self, mid, couplings, detunings, points):
        # U(t) = T.T exp(-i L t) T is complex symmetric, so the population of
        # level i from start j equals that of level j from start i; the
        # per-state kernel does not assume it, and rounds both the same way
        model = get_model(mid)
        drive = off_resonant_drive(model, detunings, couplings)
        solution = solve_frame(model, drive, allow_nonresonant=any(detunings))
        pops = solution.populations(BASIS_STATES, uniform_grid(30.0, points))
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.array_equal(pops[j][:, i], pops[i][:, j])


# largest max|L| max|t| that FrameSolution.amplitudes accepts
PHASE_LIMIT = _PHASE_TOL / _UNIT_ROUNDOFF


def within_one_ulp(a, b):
    return bool(np.all(np.abs(a - b) <= np.spacing(np.maximum(np.abs(a), np.abs(b)))))


@pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [0.0, 1.0, np.nan]])
@pytest.mark.parametrize("route", [rk4_solve, trace_via_spectral])
def test_both_routes_refuse_non_finite_grid(route, grid):
    # one grid check serves both routes: a non-finite time is a
    # configuration error before any step or phase is computed
    with pytest.raises(ConfigurationError, match="finite"):
        route(MODEL_I, CHAIN_DRIVE, StateVector.basis(1), np.array(grid))


CHAIN_SOLUTION = solve_frame(MODEL_I, CHAIN_DRIVE)
# every public entry point that takes a set of times, called on ``times``
TIME_ENTRY_POINTS = {
    "rk4_solve": lambda times: rk4_solve(MODEL_I, CHAIN_DRIVE, BASIS_STATES[0], times),
    "trace_via_spectral": lambda times: trace_via_spectral(
        MODEL_I, CHAIN_DRIVE, BASIS_STATES[0], times),
    "FrameSolution.populations": lambda times: CHAIN_SOLUTION.populations(BASIS_STATES, times),
    "max_population_gap": lambda times: CHAIN_SOLUTION.max_population_gap(
        CHAIN_SOLUTION, (1, 2, 3, 4), times),
    "check_time_independence": lambda times: check_time_independence(
        MODEL_I, CHAIN_DRIVE, times),
    "PopulationTrace": lambda times: PopulationTrace(times=times, populations=np.zeros((2, 4))),
}


@pytest.mark.parametrize("times,message", [
    (["a", "b"], "time grid must hold real numbers (dtype <U1)"),
    ([None, 1.0], "sample time nan is not finite"),
    (np.array([[0.0, 1.0], [2.0, 3.0]]), "time grid must be a non-empty 1-d array"),
    ([], "time grid must be a non-empty 1-d array"),
    ([0.0, np.nan, 1.0], "sample time nan is not finite"),
    ([0.0, 1.0, np.inf], "sample time inf is not finite"),
    ([-np.inf, 0.0, np.nan], "sample time -inf is not finite"),
])
def test_every_entry_point_refuses_times_alike(times, message):
    # models.check_times owns the rule for every set of times: each entry
    # point refuses a bad one with its ConfigurationError and its message
    for name, call in TIME_ENTRY_POINTS.items():
        with pytest.raises(ConfigurationError) as exc:
            call(times)
        assert str(exc.value) == message, name


@pytest.mark.parametrize("points", [101, 2001])
def test_every_entry_point_checks_its_times_once(monkeypatch, points):
    # each call checks its grid once and hands the checked array on, to
    # the spectral kernels and to the PopulationTrace it returns; at 2 001
    # points the phase table's uniformity test is decided in that check
    calls = []

    def counted(times, check=models.check_times):
        calls.append(times)
        return check(times)

    for module in (models, dynamics, frame):
        monkeypatch.setattr(module, "check_times", counted)
    grid = np.linspace(0.0, 1.0, points)
    entry_points = dict(TIME_ENTRY_POINTS, PopulationTrace=lambda times: PopulationTrace(
        times=times, populations=np.zeros((points, 4))))
    for name, call in entry_points.items():
        calls.clear()
        call(grid)
        assert len(calls) == 1, name


class TestPhases:
    @given(
        st.lists(st.floats(-1e3, 1e3) | st.just(-0.0), min_size=1, max_size=4),
        st.lists(st.floats(-PHASE_LIMIT, PHASE_LIMIT) | st.just(-0.0), min_size=1, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_match_complex_exp_within_one_ulp(self, lam, t):
        lam, t = np.array(lam), np.array(t)
        # scale the times so that max|L t| stays within the limit
        t /= max(1.0, float(np.abs(lam).max() * np.abs(t).max()) / PHASE_LIMIT)
        reference = np.exp(-1j * np.outer(lam, t))
        planes = _pointwise_planes(t, lam)
        assert planes.shape == (2 * lam.size, t.size)
        # exp(-i L t) = cos(L t) - i sin(L t)
        assert within_one_ulp(planes[:lam.size], reference.real)
        assert within_one_ulp(-planes[lam.size:], reference.imag)


# Largest table-path deviation from the per-value planes, in units of
# u max|L| max|t| (u = 2^-53). The time argument of the table is anchor +
# offset, t[j b] + (t[i] - t[0]); the uniformity check admits a grid within
# 4u max|t| of numpy.linspace's formation of its times, t[0] + k step. For a
# linspace grid the argument misses the grid time t[j b + i] by the rounding
# of that formation: 2u |t[-1] - t[0]| from the products k step and 3u max|t|
# from the sums, 7u max|t| when the grid crosses zero. The anchor product
# L t rounds by u max|L| max|t|, the offset product by u max|L| |t[i] - t[0]|
# (a 1/sqrt(n) share of the span), and the per-value product by
# u max|L| max|t|: about 9 in all. Measured up to 5.1 on random grids, 5.0
# on the grids that cross zero below, 2.8 on the figure grid.
TABLE_ARGUMENT_ULPS = 9
# cos and sin of anchors and offsets and the angle addition itself round in
# absolute terms; measured up to 2u where max|L| max|t| is tiny.
TABLE_ABSOLUTE_ULPS = 4


@st.composite
def uniform_grids(draw):
    """linspace grids from the crossover size to 50 001 points, ascending or
    descending, starting at zero or not. Both ends share a sign; grids that
    cross zero are ``zero_crossing_grids``.
    """
    if draw(st.booleans()):
        b = draw(st.integers(math.isqrt(_TABLE_MIN_POINTS - 1) + 1, math.isqrt(50_001)))
        n = b * b + draw(st.integers(0, 1))
    else:
        n = draw(st.integers(_TABLE_MIN_POINTS, 50_001))
    start, stop = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda ends: abs(ends[0] - ends[1]) >= 1e-3))
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(-2, 4))
    return np.linspace(scale * start, scale * stop, n)


# four eigenvalues of either sign over six decades
eigenvalue_sets = st.lists(
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0)), min_size=4, max_size=4
).map(lambda pairs: np.sort([sign * 10.0**e for sign, e in pairs]))


def zero_crossing_grids(count=3000):
    """Seeded linspace grids whose ends have opposite signs, ascending or
    descending, with log-uniform sizes from the crossover to 50 001 points,
    each with four eigenvalues of either sign over six decades. The products
    k step of their times round by up to u |t[-1] - t[0]|, which can be twice
    u max|t|: 4 of them miss the check's 4u max|t| when it compares anchor +
    offset with the grid instead of with the linspace formation."""
    rng = np.random.default_rng(2014)
    for _ in range(count):
        n = int(round(math.exp(rng.uniform(math.log(_TABLE_MIN_POINTS), math.log(50_001)))))
        scale = rng.choice([1.0, -1.0]) * 10.0 ** int(rng.integers(-2, 5))
        start, stop = scale * rng.uniform(0.001, 1.0, 2) * [-1.0, 1.0]
        lam = np.sort(rng.choice([1.0, -1.0], 4) * 10.0 ** rng.uniform(-3.0, 3.0, 4))
        yield np.linspace(start, stop, n), lam


class TestPhasePlanes:
    @given(uniform_grids(), eigenvalue_sets)
    @settings(max_examples=80, deadline=None)
    def test_table_matches_per_value_planes(self, grid, lam):
        assert _checked_grid(grid)[2]  # a uniform grid takes the table
        planes = _table_planes(grid, lam)
        assert np.array_equal(_phase_planes(_checked_grid(grid), lam), planes)
        scale = _UNIT_ROUNDOFF * float(np.abs(lam).max() * np.abs(grid).max())
        deviation = float(np.abs(planes - _pointwise_planes(grid, lam)).max())
        target(deviation / (scale + _UNIT_ROUNDOFF))
        assert deviation <= TABLE_ARGUMENT_ULPS * scale + TABLE_ABSOLUTE_ULPS * _UNIT_ROUNDOFF

    def test_table_error_is_of_the_predicted_size(self):
        # the other side of the bound: on a long grid the table's argument
        # error reaches a fixed fraction of u max|L| max|t| (1.73 measured
        # here), so the constant above is not loose by more than a few times
        lam = solve_frame(MODEL_I, CHAIN_DRIVE).eigensystem.eigenvalues
        grid = np.linspace(0.0, 5e4, 50_001)
        scale = _UNIT_ROUNDOFF * float(np.abs(lam).max()) * 5e4
        deviation = float(
            np.abs(_table_planes(grid, lam) - _pointwise_planes(grid, lam)).max()
        )
        assert 0.5 * scale <= deviation <= TABLE_ARGUMENT_ULPS * scale

    def test_grids_crossing_zero_take_the_table(self, monkeypatch):
        def refuse(t_grid, eigenvalues):
            raise AssertionError(f"a {t_grid.size}-point linspace grid left the table")

        worst = 0.0
        for grid, lam in zero_crossing_grids():
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_pointwise_planes", refuse)
                planes = _phase_planes(_checked_grid(grid), lam)
            scale = _UNIT_ROUNDOFF * float(np.abs(lam).max() * np.abs(grid).max())
            reference = _pointwise_planes(grid, lam)
            reference -= planes
            deviation = float(np.abs(reference, out=reference).max())
            worst = max(worst, (deviation - TABLE_ABSOLUTE_ULPS * _UNIT_ROUNDOFF) / scale)
        assert worst <= TABLE_ARGUMENT_ULPS

    @pytest.mark.parametrize("grid", [
        np.geomspace(1.0, 50.0, 5001),
        np.concatenate((np.linspace(0.0, 25.0, 2500), np.linspace(25.5, 50.0, 2501))),
        np.linspace(0.0, 50.0, 5001) + np.where(np.arange(5001) == 4000, 1e-9, 0.0),
    ])
    def test_non_uniform_grid_takes_per_value_path(self, grid):
        lam = solve_frame(MODEL_I, CHAIN_DRIVE).eigensystem.eigenvalues
        assert not _checked_grid(grid)[2]
        assert np.array_equal(_phase_planes(_checked_grid(grid), lam), _pointwise_planes(grid, lam))

    def test_short_grid_takes_per_value_path(self):
        lam = solve_frame(MODEL_I, CHAIN_DRIVE).eigensystem.eigenvalues
        grid = uniform_grid(50.0, _TABLE_MIN_POINTS - 1)
        assert np.array_equal(_phase_planes(_checked_grid(grid), lam), _pointwise_planes(grid, lam))

    def test_amplitudes_and_populations_share_one_kernel(self):
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        states = [StateVector.basis(level) for level in (1, 2, 3, 4)]
        for grid in (uniform_grid(50.0, 101), uniform_grid(50.0, 5001)):
            amps = solution.amplitudes(states, grid)
            pops = solution.populations(states, grid)
            for a, p in zip(amps, pops):
                assert np.array_equal(a.real**2 + a.imag**2, p)


class TestBlockEvaluation:
    """Every evaluation runs block by block, one (8, 8) @ (8, m) product
    per state and block, and a grid of one block is the whole grid's
    planes. Each state's product must give the bits of the batched
    (k, 8, 8) @ (8, n) product of the whole grid's planes, on one block
    and forced to blocks of 2 b grid times, b = isqrt(n), each with its own
    anchors and planes: NumPy hands both to OpenBLAS, whose matrix products
    give each column the same bits whatever the column count and the batch
    size, from two columns and two anchors up. (Past b = 707 the table's
    bits can also depend on its anchor count, which no grid here
    reaches.)"""

    @pytest.mark.parametrize("block_rows", [dynamics._BLOCK_ROWS, 1], ids=["one", "2b"])
    @pytest.mark.parametrize("points, table", [
        (points, table) for table in (False, True) for points in (1, 7, 13, 321, 1001, 4097)
        if points >= _TABLE_MIN_POINTS or not table  # shorter grids take per-value planes
    ])
    @pytest.mark.parametrize("states", [
        SUPERPOSITIONS[:1], BASIS_STATES, BASIS_STATES + SUPERPOSITIONS,
    ], ids=["k=1", "k=4", "k=7"])
    def test_blocks_give_the_whole_grid_bits(self, monkeypatch, points, table, states, block_rows):
        grid = uniform_grid(50.0, points) if table else np.geomspace(1.0, 50.0, points)
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        lam = solution.eigensystem.eigenvalues
        checked = _checked_grid(grid)
        assert checked[2] == table
        whole = (_table_planes if table else _pointwise_planes)(grid, lam)
        mixes = np.stack(solution._mix(states, solution._back(checked)))
        parts = mixes @ whole
        parts *= parts
        expected = (parts[:, :4] + parts[:, 4:]).transpose(0, 2, 1)
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
        b = math.isqrt(points)
        blocks = solution.blocks(states, grid)
        starts = [start for start, _ in blocks]
        widths = np.diff(starts + [points])
        assert all(start % b == 0 for start in starts)
        assert len(starts) == 1 or widths.min() > b  # two anchors, two columns or more
        assert len(starts) == (max(1, (points - b - 1) // (2 * b) + 1) if block_rows == 1 else 1)
        for pops, want in zip(solution.populations(states, grid), expected):
            assert np.array_equal(pops, want)
        for (start, evaluate), (_, planes) in zip(blocks, _plane_blocks(checked, lam)):
            block = evaluate()
            assert np.array_equal(block, expected[:, start : start + block.shape[1]])
            planes = planes()  # a strided view of the table's product on a short last block
            for mix, batched in zip(mixes, mixes @ planes):
                assert np.array_equal(mix @ planes, batched)

    def test_blocks_are_evaluated_as_they_are_read(self, monkeypatch):
        # the checks run once, when the list is made; a block's planes and
        # products only when its function is called, and afresh at every
        # call, so the list reads twice with the same bits
        solution = solve_frame(MODEL_I, CHAIN_DRIVE)
        with pytest.raises(NumericsError):
            solution.blocks(BASIS_STATES, np.array([0.0, 1e17]))
        checks, formed = [], []

        def counted(times, check=models.check_times):
            checks.append(times)
            return check(times)

        def forming(*args, form=dynamics._anchored_planes):
            formed.append(args[-1])
            return form(*args)

        monkeypatch.setattr(dynamics, "check_times", counted)
        monkeypatch.setattr(dynamics, "_anchored_planes", forming)
        grid = uniform_grid(50.0, 100_001)
        blocks = solution.blocks(BASIS_STATES, grid)
        assert len(checks) == 1 and formed == []
        start, evaluate = blocks[0]
        first = evaluate()
        assert start == 0 and first.shape == (4, blocks[1][0], 4) == (4, 316 * 12, 4)
        assert formed == [first.shape[1]]
        reads = [np.concatenate([evaluate() for _, evaluate in blocks], axis=1) for _ in range(2)]
        assert len(checks) == 1 and len(formed) == 1 + 2 * len(blocks)
        assert np.array_equal(reads[0][:, : first.shape[1]], first)
        assert np.array_equal(reads[0], reads[1])
        assert np.array_equal(reads[0], np.stack(solution.populations(BASIS_STATES, grid)))


class TestScalarReference:
    def test_scalar_rhs_rk4_matches_step_matrix_march(self):
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
        assert np.abs(final - c).max() < 1e-12
