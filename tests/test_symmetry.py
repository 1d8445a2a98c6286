"""Tests for the path relabelling, the ladder flip and the spin-3/2 reduction."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi import symmetry
from su4rabi.dynamics import solve_frame, trace_via_spectral
from su4rabi.errors import ConfigurationError
from su4rabi.frame import resonant_drive, rotate
from su4rabi.models import DriveParams, ModelId, StateVector, catalog, get_model
from su4rabi.spectral import jacobi_eigh
from su4rabi.symmetry import (
    check_inversion,
    inversion_partner,
    relabel_drive,
    spin32_closed_form,
    spin32_couplings,
    spin32_frame_matrix,
    spin32_reduction,
)

OMEGA = (1.0, 2.0, 3.0)
STANDARD = {(4, 1): 0.7, (4, 2): 0.4, (3, 1): 0.4, (2, 1): 0.24, (3, 2): 0.24, (4, 3): 0.24}
ANTIDIAG = np.fliplr(np.eye(4))

# Cross-check table only; partners are computed from the catalog.
EXPECTED_PARTNERS = {
    ModelId.I: ModelId.VI,
    ModelId.II: ModelId.V,
    ModelId.III: ModelId.III,
    ModelId.IV: ModelId.IV,
    ModelId.V: ModelId.II,
    ModelId.VI: ModelId.I,
}

ALL_IDS = ["I", "II", "III", "IV", "V", "VI"]
U = 2.0**-53


def flipped(model):
    """The ladder flip i -> 5 - i, as the path it maps the model onto."""
    return tuple(5 - i for i in model.path)


def standard_drive(mid):
    model = get_model(mid)
    coupling = {tr: STANDARD[tr] for tr in model.allowed}
    return model, resonant_drive(model, OMEGA, coupling)


def detuned_drive(mid):
    """The standard couplings with each field, in transition order, off
    resonance by 0.2, -0.07 and 0.13."""
    model, base = standard_drive(mid)
    fields = dict(base.field_freq)
    for tr, detuning in zip(sorted(model.allowed), (0.2, -0.07, 0.13)):
        fields[tr] += detuning
    return model, DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)


def random_drive(model, rng, detuned):
    """Splittings 0.5-3 and couplings 0.05-1; detuned, each transition
    detuning drawn from [-0.5, 0.5]."""
    omega = tuple(rng.uniform(0.5, 3.0) for _ in range(3))
    coupling = {tr: rng.uniform(0.05, 1.0) for tr in sorted(model.allowed)}
    drive = resonant_drive(model, omega, coupling)
    if not detuned:
        return drive
    fields = {tr: drive.field_freq[tr] - rng.uniform(-0.5, 0.5) for tr in sorted(model.allowed)}
    return DriveParams(omega=omega, field_freq=fields, coupling=coupling)


def negated(model, drive, transitions):
    """``drive`` with the detuning of each of ``transitions`` negated."""
    energies = model.energies(drive.omega)
    detunings = rotate(model, drive).detunings
    fields = dict(drive.field_freq)
    for (a, b) in transitions:
        fields[(a, b)] = (energies[a - 1] - energies[b - 1]) + detunings[(a, b)]
    return DriveParams(omega=drive.omega, field_freq=fields, coupling=drive.coupling)


def gap_bound(mine, theirs, t_max):
    """The largest population gap two solutions may show where their exact
    populations agree, derived from the documented budgets.

    Each side evaluates a propagator within eps = (9 + 7.9) u max|L| max|t|
    of the exact one in norm: the phase table adds at most 9u max|L| max|t|
    to the phases, and the Jacobi eigensystem is taken as exact for a matrix
    within 7.9u max|L| (the solver's documented eigenvalue error, read as a
    backward error), which the evolution carries over max|t|. A population is |a_i|^2 of a unit column a of the propagator,
    and for unit vectors ||a_i|^2 - |b_i|^2| <= sqrt(1 - |<a, b>|^2)
    <= ||a - b||, so it moves by at most eps. The evaluation's own rounding
    (a four-term product, its square and a sum of two squares) adds at most
    8u. Two sides: 2 (16.9 max|L| max|t| + 8) u <= (34 max|L| max|t| + 16) u.

    One term is left out: the eigenvector orthogonality defect
    d = max|T T^T - I|. The propagator at t = 0 is T^T T, not I, so a
    population there is (1 + e)^2, about 1 + 2e for a diagonal defect e of
    T^T T: the defect enters at about twice its size, where L t = 0 leaves
    the phase terms above nothing to cover it. Over 3 000 resonant drives
    d reached 18u and |P(0) - delta| 38u, against 8u per side here;
    ``jacobi_eigh`` admits d up to 1e-10 (``_ORTHO_TOL``). Every use below
    takes max|t| = 50, so the bound at t = 0 is the global one and covers
    the term with room; the numeric bound stays as it is.
    """
    lam = max(np.abs(mine.eigensystem.eigenvalues).max(), np.abs(theirs.eigensystem.eigenvalues).max())
    return (34.0 * lam * t_max + 16.0) * U


class TestLadderFlip:
    def test_partners_match_expected_table(self):
        for mid in ALL_IDS:
            assert inversion_partner(mid) == EXPECTED_PARTNERS[ModelId(mid)]

    def test_unknown_id_is_a_configuration_error(self):
        _, drive = standard_drive("I")
        for call in (lambda: inversion_partner("VII"),
                     lambda: check_inversion("VII", drive, np.linspace(0.0, 1.0, 5))):
            with pytest.raises(ConfigurationError, match=r"unknown model 'VII'; choose from I, II"):
                call()

    def test_partnering_is_an_involution(self):
        for mid in ALL_IDS:
            assert inversion_partner(inversion_partner(mid)) == ModelId(mid)

    def test_flipped_path_targets_the_expected_partner(self):
        for mid in ALL_IDS:
            model, drive = standard_drive(mid)
            partner, _, levels = relabel_drive(model, drive, flipped(model))
            assert partner.id == EXPECTED_PARTNERS[ModelId(mid)]
            assert levels == (4, 3, 2, 1)


class TestFlippedDrive:
    def test_couplings_travel_with_transitions(self):
        model, drive = standard_drive("I")
        partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
        assert partner.id == ModelId.VI
        assert pdrive.coupling[(4, 1)] == drive.coupling[(4, 1)]
        assert pdrive.coupling[(3, 2)] == drive.coupling[(3, 2)]
        assert pdrive.coupling[(4, 3)] == drive.coupling[(2, 1)]

    def test_resonant_drive_maps_to_resonant_drive(self):
        for mid in ALL_IDS:
            model, drive = standard_drive(mid)
            partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
            assert rotate(partner, pdrive).max_detuning() < 1e-12

    def test_detunings_negate(self):
        model, base = standard_drive("II")
        fields = dict(base.field_freq)
        fields[(4, 3)] += 0.2
        fields[(2, 1)] -= 0.07
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)
        partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
        src = rotate(model, drive).detunings
        dst = rotate(partner, pdrive).detunings
        for (a, b), value in src.items():
            assert dst[(5 - b, 5 - a)] == pytest.approx(-value, abs=1e-12)

    def test_frame_matrices_antidiagonally_conjugate(self):
        for mid in ALL_IDS:
            model, drive = standard_drive(mid)
            partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
            h_src = rotate(model, drive).h_tilde
            h_dst = rotate(partner, pdrive).h_tilde
            assert np.abs(h_dst - ANTIDIAG @ h_src @ ANTIDIAG).max() < 1e-14

    def test_conjugacy_survives_off_resonance(self):
        model, base = standard_drive("IV")
        fields = dict(base.field_freq)
        fields[(4, 1)] += 0.5
        drive = DriveParams(omega=OMEGA, field_freq=fields, coupling=base.coupling)
        partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
        h_src = rotate(model, drive).h_tilde
        h_dst = rotate(partner, pdrive).h_tilde
        assert np.abs(h_dst - ANTIDIAG @ h_src @ ANTIDIAG).max() < 1e-14

    @pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_fields_carry_the_negated_detunings_bit_for_bit(self, mid, detuned):
        # the flip reverses every transition, so each partner field is its
        # level gap plus the source detuning, to the last bit; a sign error on
        # every transition at once would pass every population test, since
        # negating all detunings is itself a symmetry (TestPathMaps)
        model, drive = (detuned_drive if detuned else standard_drive)(mid)
        partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
        src = model.energies(OMEGA)
        dst = partner.energies(OMEGA)
        for (a, b), field in drive.field_freq.items():
            detuning = (src[a - 1] - src[b - 1]) - field
            image = (5 - b, 5 - a)
            assert pdrive.field_freq[image] == (dst[4 - b] - dst[4 - a]) + detuning
            assert pdrive.coupling[image] == drive.coupling[(a, b)]

    @pytest.mark.parametrize("path", [(1, 3, 2, 4), (4, 2, 3, 1), (1, 1, 2, 3), (1, 2, 3)])
    def test_a_path_off_the_catalog_is_a_configuration_error(self, path):
        model, drive = standard_drive("I")
        with pytest.raises(ConfigurationError, match=re.escape(f"path {path}")):
            relabel_drive(model, drive, path)


class TestPathMaps:
    """Every configuration relabelled onto every catalog path, read either
    way: 36 ordered model pairs, 72 level maps."""

    GRID = np.linspace(0.0, 50.0, 2001)

    @pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_every_path_map_keeps_the_populations(self, mid, detuned):
        model = get_model(mid)
        rng = random.Random(f"{mid}-{detuned}")
        for _ in range(4):
            drive = random_drive(model, rng, detuned)
            mine = solve_frame(model, drive, detuned)
            for target in catalog():
                for path in (target.path, target.path[::-1]):
                    got, tdrive, levels = relabel_drive(model, drive, path)
                    assert got is target
                    for (a, b), kappa in drive.coupling.items():
                        image = (max(levels[a - 1], levels[b - 1]), min(levels[a - 1], levels[b - 1]))
                        assert tdrive.coupling[image] == kappa
                    theirs = solve_frame(target, tdrive, detuned)
                    gap = mine.max_population_gap(theirs, levels, self.GRID)
                    assert gap <= gap_bound(mine, theirs, 50.0)

    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_negating_every_detuning_keeps_the_populations(self, mid):
        # the path is bipartite: a sign on alternate levels takes the frame
        # matrix to minus itself with the couplings fixed, and U(-t) is the
        # complex conjugate of U(t) for a real symmetric matrix
        model, drive = detuned_drive(mid)
        mine = solve_frame(model, drive, True)
        theirs = solve_frame(model, negated(model, drive, model.allowed), True)
        assert mine.max_population_gap(theirs, (1, 2, 3, 4), self.GRID) <= gap_bound(mine, theirs, 50.0)

    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_one_negated_detuning_is_seen(self, mid):
        # a map that got one transition's orientation wrong would hand the
        # target this drive; the smallest gap measured is 0.34
        model, drive = detuned_drive(mid)
        mine = solve_frame(model, drive, True)
        partner, pdrive, levels = relabel_drive(model, drive, flipped(model))
        for tr in sorted(partner.allowed):
            theirs = solve_frame(partner, negated(partner, pdrive, [tr]), True)
            assert mine.max_population_gap(theirs, levels, self.GRID) > 1e-3


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

    # 101 points take one cos and sin per value, 401 and 2 001 the table
    @pytest.mark.parametrize("points", [1, 101, 401, 2001])
    @pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_worst_start_level_is_reported(self, mid, detuned, points):
        # the deviation is the maximum over the four start levels, each
        # paired with its mirror level on the partner: all sixteen level
        # pairs of the per-state traces, which the ten reciprocal pairs of
        # the check must give bit for bit
        model, drive = (detuned_drive if detuned else standard_drive)(mid)
        partner, pdrive, _ = relabel_drive(model, drive, flipped(model))
        grid = np.linspace(0.0, 20.0, points)
        worst = 0.0
        for level in (1, 2, 3, 4):
            src = trace_via_spectral(model, drive, StateVector.basis(level), grid, detuned)
            dst = trace_via_spectral(partner, pdrive, StateVector.basis(5 - level), grid, detuned)
            worst = max(worst, float(np.abs(src.populations - dst.populations[:, ::-1]).max()))
        assert check_inversion(mid, drive, grid, allow_nonresonant=detuned) == worst

    @pytest.mark.parametrize("mid", ALL_IDS)
    def test_a_wrong_partner_coupling_is_reported(self, mid, monkeypatch):
        # a check that compared one side with itself would read 0 here, and
        # would meet every rounding-level bound above
        relabel = symmetry.relabel_drive

        def skewed(model, drive, path):
            partner, pdrive, levels = relabel(model, drive, path)
            coupling = dict(pdrive.coupling)
            coupling[min(coupling)] *= 1.1
            return partner, DriveParams(
                omega=pdrive.omega, field_freq=pdrive.field_freq, coupling=coupling
            ), levels

        monkeypatch.setattr(symmetry, "relabel_drive", skewed)
        _, drive = standard_drive(mid)
        assert check_inversion(mid, drive, np.linspace(0.0, 20.0, 2001)) > 1e-3

    @pytest.mark.parametrize("points", [2001, 5001])
    def test_working_set_per_grid_point(self, points):
        # both pair tables and their difference share one (3, 10, n)
        # workspace, 240 B per point, beside one side's (8, n) phase planes
        # at a time: 321 and 317 B per point measured (2 001 and 5 001
        # points, NumPy 2.4.6), against 485 B for four per-start arrays a side.
        # The bound allows 12 % for NumPy's own temporaries.
        _, drive = standard_drive("II")
        grid = np.linspace(0.0, 20.0, points)
        check_inversion("II", drive, grid)
        tracemalloc.start()
        try:
            check_inversion("II", drive, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / points < 360.0

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

    @given(st.floats(0.01, 2.0), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_rows_sum_to_one(self, kappa, t):
        pops = spin32_closed_form(kappa, np.array(t))
        assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-15

    @given(st.floats(0.01, 2.0), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_powers(self, kappa, t):
        c = np.cos(kappa * np.array(t))
        s = np.sin(kappa * np.array(t))
        powers = np.stack([s**6, 3 * c**2 * s**4, 3 * c**4 * s**2, c**6], axis=1)
        assert np.abs(spin32_closed_form(kappa, np.array(t)) - powers).max() <= 1e-15

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
