"""Frame generator, detunings, and time independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.algebra import build_generators, build_shift_operators
from su4rabi.errors import ConfigurationError
from su4rabi.frame import (
    check_time_independence,
    frame_generator,
    resonant_drive,
    rotate,
    transform_at,
)
from su4rabi.models import DriveParams, ModelConfig, ModelId, catalog, get_model

OPS = build_shift_operators(build_generators())

SAMPLE_TIMES = (0.0, 0.7, 1.3, 2.9, 4.1)

finite = st.floats(-4, 4, allow_nan=False)


def generic_drive(model, omega=(1.0, 2.0, 3.0)):
    freqs = {tr: 0.3 + 0.57 * i for i, tr in enumerate(model.sorted_transitions())}
    kappas = {tr: 0.2 + 0.1 * i for i, tr in enumerate(model.sorted_transitions())}
    return DriveParams(omega=omega, field_freq=freqs, coupling=kappas)


class TestFrameGenerator:
    def test_chain_example(self):
        m = get_model("I")
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={(4, 1): 4.0, (3, 2): 2.0, (2, 1): 1.0},
            coupling={tr: 0.1 for tr in m.allowed},
        )
        assert np.allclose(frame_generator(m, drive), [2.0, 1.0, -1.0, -2.0], atol=1e-13)

    def test_zero_fields_give_zero_generator(self):
        for m in catalog():
            drive = DriveParams(
                omega=(1.0, 2.0, 3.0),
                field_freq={tr: 0.0 for tr in m.allowed},
                coupling={tr: 0.1 for tr in m.allowed},
            )
            assert np.abs(frame_generator(m, drive)).max() < 1e-13

    def test_traceless(self):
        for m in catalog():
            assert abs(frame_generator(m, generic_drive(m)).sum()) < 1e-12

    def test_edge_equations_hold(self):
        for m in catalog():
            drive = generic_drive(m)
            k = frame_generator(m, drive)
            for a, b in m.allowed:
                assert k[a - 1] - k[b - 1] == pytest.approx(
                    -drive.field_freq[(a, b)], abs=1e-12)

    def test_chain_generator_matches_diagonal_operator_combination(self):
        # independent route: expand the same generator over the three
        # diagonal shift operators of the chain configuration
        w21, w32, w41 = 0.7, 1.3, 2.9
        m = get_model("I")
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={(4, 1): w41, (3, 2): w32, (2, 1): w21},
            coupling={tr: 0.1 for tr in m.allowed},
        )
        k_rows = np.diag(frame_generator(m, drive)[::-1])
        combo = (
            (2 * w21 + w32 - 3 * w41) / 4.0 * OPS.diagonal["W3"]
            + (-2 * w21 - w32 + w41) / 2.0 * OPS.diagonal["Z3"]
            + (-2 * w21 - 3 * w32 + w41) / 4.0 * OPS.diagonal["U3"]
        )
        assert np.abs(k_rows - combo).max() < 1e-13

    def test_cyclic_transition_set_is_rejected(self):
        cyclic = ModelConfig(
            id=ModelId.I,
            allowed=frozenset({(2, 1), (3, 2), (3, 1)}),
            energy_coeffs=get_model("I").energy_coeffs,
            diagonal_ops=get_model("I").diagonal_ops,
        )
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={(2, 1): 1.0, (3, 2): 1.0, (3, 1): 2.0},
            coupling={(2, 1): 0.1, (3, 2): 0.1, (3, 1): 0.1},
        )
        with pytest.raises(ConfigurationError):
            frame_generator(cyclic, drive)


    def test_cycle_through_all_four_levels_is_rejected(self):
        # four transitions reach every level, but one closes a cycle and its
        # equation could contradict the others
        allowed = {(2, 1), (3, 2), (3, 1), (4, 1)}
        cyclic = ModelConfig(
            id=ModelId.I,
            allowed=frozenset(allowed),
            energy_coeffs=get_model("I").energy_coeffs,
            diagonal_ops=get_model("I").diagonal_ops,
        )
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={(2, 1): 1.0, (3, 2): 1.0, (3, 1): 2.5, (4, 1): 3.0},
            coupling={tr: 0.1 for tr in allowed},
        )
        with pytest.raises(ConfigurationError, match="not a spanning tree"):
            frame_generator(cyclic, drive)

    def test_unreachable_level_is_rejected(self):
        allowed = {(2, 1), (3, 2)}
        short = ModelConfig(
            id=ModelId.III,
            allowed=frozenset(allowed),
            energy_coeffs=get_model("III").energy_coeffs,
            diagonal_ops=get_model("III").diagonal_ops,
        )
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={tr: 1.0 for tr in allowed},
            coupling={tr: 0.1 for tr in allowed},
        )
        with pytest.raises(ConfigurationError, match="not a spanning tree"):
            frame_generator(short, drive)


class TestRotate:
    def test_real_symmetric_for_any_drive(self):
        for m in catalog():
            fr = rotate(m, generic_drive(m))
            assert fr.h_tilde.dtype == np.float64
            assert np.abs(fr.h_tilde - fr.h_tilde.T).max() == 0.0

    def test_detunings_match_definition(self):
        m = get_model("I")
        omega = (0.9, 1.7, 0.3)
        drive = DriveParams(
            omega=omega,
            field_freq={(4, 1): 2.2, (3, 2): 1.1, (2, 1): 0.6},
            coupling={tr: 0.1 for tr in m.allowed},
        )
        fr = rotate(m, drive)
        energies = m.energies(omega)
        # (E4 - E1) - w41 with E4 = w1, E1 = -w1 - w2: (2 w1 + w2) - w41
        assert fr.detunings[(4, 1)] == pytest.approx(
            (2 * omega[0] + omega[1]) - 2.2, abs=1e-13)
        for (a, b), val in fr.detunings.items():
            assert val == pytest.approx(
                (energies[a - 1] - energies[b - 1]) - drive.field_freq[(a, b)], abs=1e-13)

    def test_diag_detunings_differences_reproduce_transition_detunings(self):
        for m in catalog():
            fr = rotate(m, generic_drive(m))
            for (a, b), val in fr.detunings.items():
                assert fr.diag_detunings[a - 1] - fr.diag_detunings[b - 1] == pytest.approx(
                    val, abs=1e-12)

    def test_diag_detunings_sum_to_zero(self):
        for m in catalog():
            assert abs(rotate(m, generic_drive(m)).diag_detunings.sum()) < 1e-13

    def test_chain_diagonal_detuning_combinations(self):
        # the chain configuration's per-level detunings are fixed linear
        # combinations of its three transition detunings
        m = get_model("I")
        drive = generic_drive(m, omega=(0.9, 1.7, 0.3))
        fr = rotate(m, drive)
        d21, d32, d41 = (fr.detunings[tr] for tr in ((2, 1), (3, 2), (4, 1)))
        expected_level = np.array([
            -(2 * d21 + d32 + d41) / 4.0,
            (2 * d21 - d32 - d41) / 4.0,
            (2 * d21 + 3 * d32 - d41) / 4.0,
            (-2 * d21 - d32 + 3 * d41) / 4.0,
        ])
        assert np.abs(fr.diag_detunings - expected_level).max() < 1e-13

    def test_resonant_drive_zeroes_diagonal(self):
        for m in catalog():
            drive = resonant_drive(m, (1.0, 2.0, 3.0), {tr: 0.3 for tr in m.allowed})
            fr = rotate(m, drive)
            assert np.abs(np.diag(fr.h_tilde)).max() < 1e-13
            assert fr.is_resonant()

    def test_off_diagonal_carries_bare_couplings(self):
        m = get_model("V")
        drive = generic_drive(m)
        fr = rotate(m, drive)
        for (a, b), kappa in drive.coupling.items():
            assert fr.h_tilde[4 - a, 4 - b] == kappa


class TestTimeIndependence:
    def test_solved_generator_cancels_phases(self):
        for m in catalog():
            drift = check_time_independence(m, generic_drive(m), SAMPLE_TIMES)
            assert drift < 1e-12

    @given(finite, finite, finite)
    @settings(max_examples=25, deadline=None)
    def test_cancellation_for_random_fields(self, f1, f2, f3):
        m = get_model("VI")
        freqs = dict(zip(m.sorted_transitions(), (f1, f2, f3)))
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0), field_freq=freqs,
            coupling={tr: 0.4 for tr in m.allowed})
        assert check_time_independence(m, drive, SAMPLE_TIMES) < 1e-12

    def test_wrong_generator_leaves_oscillation(self):
        m = get_model("I")
        drive = generic_drive(m)
        wrong = frame_generator(m, drive) + np.array([0.5, -0.5, 0.5, -0.5])
        assert check_time_independence(m, drive, SAMPLE_TIMES, k_levels=wrong) > 1e-3

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            check_time_independence(get_model("I"), generic_drive(get_model("I")), (0.0,))

    def test_array_evaluation_matches_per_time_loop(self):
        # one array call over all sample times gives the very bits of the
        # per-time evaluation
        for m in catalog():
            drive = generic_drive(m)
            k = frame_generator(m, drive)
            reference = transform_at(m, drive, SAMPLE_TIMES[0], k)
            loop = max(float(np.abs(transform_at(m, drive, t, k) - reference).max())
                       for t in SAMPLE_TIMES[1:])
            assert check_time_independence(m, drive, SAMPLE_TIMES) == loop

    def test_matches_rotating_frame_matrix(self):
        for m in catalog():
            drive = generic_drive(m)
            fr = rotate(m, drive)
            at = transform_at(m, drive, 1.234, fr.K)
            assert np.abs(at - fr.h_tilde).max() < 1e-12
