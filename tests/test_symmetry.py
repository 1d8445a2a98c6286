"""Tests for the ladder-flip symmetry and the spin-3/2 reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.dynamics import trace_via_spectral
from su4rabi.errors import ConfigurationError
from su4rabi.frame import resonant_drive, rotate
from su4rabi.models import DriveParams, ModelId, StateVector, get_model
from su4rabi.spectral import jacobi_eigh
from su4rabi.symmetry import (
    EXPECTED_PARTNERS,
    check_inversion,
    inversion_partner,
    invert_drive,
    map_level,
    map_transition,
    spin32_closed_form,
    spin32_couplings,
    spin32_frame_matrix,
    spin32_reduction,
)

OMEGA = (1.0, 2.0, 3.0)
STANDARD = {(4, 1): 0.7, (4, 2): 0.4, (3, 1): 0.4, (2, 1): 0.24, (3, 2): 0.24, (4, 3): 0.24}
ANTIDIAG = np.fliplr(np.eye(4))

ALL_IDS = ["I", "II", "III", "IV", "V", "VI"]


def standard_drive(mid):
    model = get_model(mid)
    coupling = {tr: STANDARD[tr] for tr in model.allowed}
    return model, resonant_drive(model, OMEGA, coupling)


class TestLadderFlip:
    def test_map_level_swaps_ends(self):
        assert [map_level(i) for i in (1, 2, 3, 4)] == [4, 3, 2, 1]

    def test_map_level_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            map_level(0)
        with pytest.raises(ConfigurationError):
            map_level(5)

    def test_map_transition_keeps_upper_first(self):
        assert map_transition((4, 1)) == (4, 1)
        assert map_transition((3, 2)) == (3, 2)
        assert map_transition((4, 3)) == (2, 1)
        assert map_transition((2, 1)) == (4, 3)
        assert map_transition((4, 2)) == (3, 1)
        assert map_transition((3, 1)) == (4, 2)

    def test_partners_match_expected_table(self):
        for mid in ALL_IDS:
            inv = inversion_partner(mid)
            assert inv.target == EXPECTED_PARTNERS[inv.source]

    def test_partnering_is_an_involution(self):
        for mid in ALL_IDS:
            once = inversion_partner(mid).target
            assert inversion_partner(once).target == ModelId(mid)


class TestInvertDrive:
    def test_couplings_travel_with_transitions(self):
        model, drive = standard_drive("I")
        partner, pdrive = invert_drive(model, drive)
        assert partner.id == ModelId.VI
        assert pdrive.coupling[(4, 1)] == drive.coupling[(4, 1)]
        assert pdrive.coupling[(3, 2)] == drive.coupling[(3, 2)]
        assert pdrive.coupling[(4, 3)] == drive.coupling[(2, 1)]

    def test_resonant_drive_maps_to_resonant_drive(self):
        for mid in ALL_IDS:
            model, drive = standard_drive(mid)
            partner, pdrive = invert_drive(model, drive)
            assert rotate(partner, pdrive).max_detuning() < 1e-12

    def test_detunings_negate(self):
        model, base = standard_drive("II")
        fields = dict(base.field_freq)
        fields[(4, 3)] += 0.2
        fields[(2, 1)] -= 0.07
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)
        partner, pdrive = invert_drive(model, drive)
        src = rotate(model, drive).detunings
        dst = rotate(partner, pdrive).detunings
        for tr, value in src.items():
            assert dst[map_transition(tr)] == pytest.approx(-value, abs=1e-12)

    def test_frame_matrices_antidiagonally_conjugate(self):
        for mid in ALL_IDS:
            model, drive = standard_drive(mid)
            partner, pdrive = invert_drive(model, drive)
            h_src = rotate(model, drive).h_tilde
            h_dst = rotate(partner, pdrive).h_tilde
            assert np.abs(h_dst - ANTIDIAG @ h_src @ ANTIDIAG).max() < 1e-14

    def test_conjugacy_survives_off_resonance(self):
        model, base = standard_drive("IV")
        fields = dict(base.field_freq)
        fields[(4, 1)] += 0.5
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)
        partner, pdrive = invert_drive(model, drive)
        h_src = rotate(model, drive).h_tilde
        h_dst = rotate(partner, pdrive).h_tilde
        assert np.abs(h_dst - ANTIDIAG @ h_src @ ANTIDIAG).max() < 1e-14


class TestCheckInversion:
    def test_populations_mirror_for_all_pairs(self):
        grid = np.linspace(0.0, 20.0, 2001)
        for mid in ALL_IDS:
            _, drive = standard_drive(mid)
            assert check_inversion(mid, drive, grid) < 1e-12

    def test_single_point_grid_stays_at_rounding_level(self):
        # Even at t = 0 both traces pass through their own eigenbasis
        # reconstruction, so the match is to rounding rather than bitwise.
        _, drive = standard_drive("III")
        assert check_inversion("III", drive, np.array([0.0])) < 1e-14

    def test_worst_start_level_is_reported(self):
        # the deviation is the maximum over the four start levels, each
        # paired with its mirror level on the partner
        model, drive = standard_drive("II")
        partner, pdrive = invert_drive(model, drive)
        grid = np.linspace(0.0, 20.0, 401)
        worst = 0.0
        for level in (1, 2, 3, 4):
            src = trace_via_spectral(model, drive, StateVector.basis(level), grid)
            dst = trace_via_spectral(partner, pdrive, StateVector.basis(5 - level), grid)
            worst = max(worst, float(np.abs(src.populations - dst.populations[:, ::-1]).max()))
        assert check_inversion("II", drive, grid) == worst

    def test_off_resonance_needs_opt_in(self):
        model, base = standard_drive("II")
        fields = dict(base.field_freq)
        fields[(4, 3)] += 0.2
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)
        grid = np.linspace(0.0, 10.0, 501)
        with pytest.raises(ConfigurationError):
            check_inversion("II", drive, grid)
        assert check_inversion("II", drive, grid, allow_nonresonant=True) < 1e-12


class TestSpin32:
    def test_coupling_ratios(self):
        kappa = 0.37
        coupling = spin32_couplings(kappa)
        assert coupling[(4, 3)] == pytest.approx(math.sqrt(3.0) * kappa, rel=1e-15)
        assert coupling[(3, 2)] == pytest.approx(2.0 * kappa, rel=1e-15)
        assert coupling[(2, 1)] == pytest.approx(math.sqrt(3.0) * kappa, rel=1e-15)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ConfigurationError):
            spin32_couplings(0.0)
        with pytest.raises(ConfigurationError):
            spin32_couplings(-0.1)

    def test_frame_matrix_is_angular_momentum_x(self):
        kappa = 0.5
        half_sqrt3 = math.sqrt(3.0) / 2.0
        jx = np.array(
            [
                [0.0, half_sqrt3, 0.0, 0.0],
                [half_sqrt3, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, half_sqrt3],
                [0.0, 0.0, half_sqrt3, 0.0],
            ]
        )
        assert np.abs(spin32_frame_matrix(kappa) - 2.0 * kappa * jx).max() < 1e-15

    def test_eigenvalues_form_equidistant_ladder(self):
        kappa = 0.24
        es = jacobi_eigh(spin32_frame_matrix(kappa))
        expected = np.array([-3.0, -1.0, 1.0, 3.0]) * kappa
        assert np.abs(es.eigenvalues - expected).max() < 1e-12

    def test_closed_form_endpoints(self):
        kappa = 0.3
        quarter = np.pi / (2.0 * kappa)
        pops = spin32_closed_form(kappa, np.array([0.0, quarter]))
        assert pops[0] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)
        assert pops[1] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    @given(st.floats(0.01, 2.0), st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_rows_sum_to_one(self, kappa, t):
        pops = spin32_closed_form(kappa, np.array([t]))
        assert float(pops.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_reduction_matches_closed_form(self):
        _, deviation, _ = spin32_reduction(0.24, np.linspace(0.0, 30.0, 3001))
        assert deviation < 1e-10

    def test_reduction_returns_the_solved_ladder(self):
        _, _, solution = spin32_reduction(0.24, np.linspace(0.0, 5.0, 51))
        assert np.array_equal(solution.frame.h_tilde, spin32_frame_matrix(0.24))
        expected = np.array([-3.0, -1.0, 1.0, 3.0]) * 0.24
        assert np.abs(solution.eigensystem.eigenvalues - expected).max() < 1e-12

    def test_reduction_trace_starts_at_top(self):
        trace, _, _ = spin32_reduction(0.5, np.linspace(0.0, 5.0, 51))
        assert trace.populations[0] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-14)
