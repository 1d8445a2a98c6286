"""Jacobi eigensolver, six-angle factorization, and exact propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from su4rabi.cli import STANDARD_COUPLINGS
from su4rabi.dynamics import solve_frame
from su4rabi.errors import NumericsError
from su4rabi.frame import resonant_drive, rotate
from su4rabi.models import StateVector, catalog, get_model
from su4rabi.spectral import (
    PLANES,
    EigenSystem,
    compose_rotations,
    factor_orthogonal,
    jacobi_eigh,
    plane_rotation,
)

symmetric_matrices = arrays(
    np.float64, (4, 4), elements=st.floats(-3, 3, allow_nan=False, width=32)
).map(lambda a: (a + a.T) / 2.0)

angle_sets = arrays(
    np.float64, (6,),
    elements=st.floats(-np.pi, np.pi, allow_nan=False, exclude_min=True),
)


# Spectra with forced repeats and near-repeats: four picks from at most
# four levels on a 1e-3 grid in [-1, 1], each moved by a gap of 0 (an exact
# repeat) or down to 1e-10.
degenerate_spectra = st.tuples(
    st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000.0), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.sampled_from([0.0, 1e-10, -1e-10, 3e-9, 1e-7]), min_size=4, max_size=4),
).map(lambda t: np.array([t[0][i % len(t[0])] + gap for i, gap in zip(t[1], t[2])]))

rotation_seeds = arrays(np.float64, (4, 4), elements=st.floats(-1, 1, allow_nan=False))


def sign_fixed(rows):
    """The diagonalizer's sign rule: in each row, the first component whose
    magnitude is within 1e-12 of the row's largest is positive."""
    rows = rows.copy()
    for row in rows:
        lead = row[np.flatnonzero(np.abs(row) >= np.abs(row).max() - 1e-12)[0]]
        if lead < 0:
            row *= -1.0
    return rows


def det_corrected(t):
    t = t.copy()
    if np.linalg.det(t) < 0:
        t[0] *= -1.0
    return t


class TestJacobi:
    def test_identity(self):
        es = jacobi_eigh(np.eye(4))
        assert np.array_equal(es.eigenvalues, np.ones(4))
        assert np.array_equal(es.diagonalizer, np.eye(4))

    def test_equidistant_ladder_eigenvalues(self):
        # tridiagonal (sqrt3 k, 2k, sqrt3 k) has the arithmetic sequence
        # -3k, -k, k, 3k; cross-checked against the characteristic roots
        k = 0.24
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = np.sqrt(3.0) * k
        h[1, 2] = h[2, 1] = 2.0 * k
        h[2, 3] = h[3, 2] = np.sqrt(3.0) * k
        es = jacobi_eigh(h)
        assert np.abs(es.eigenvalues - np.array([-0.72, -0.24, 0.24, 0.72])).max() < 1e-12

    def test_ascending_order(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = rng.standard_normal((4, 4))
            es = jacobi_eigh(h + h.T)
            assert np.all(np.diff(es.eigenvalues) >= -1e-14)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            h = rng.standard_normal((4, 4))
            h = (h + h.T) / 2.0
            es = jacobi_eigh(h)
            t = es.diagonalizer
            assert np.abs(t @ t.T - np.eye(4)).max() < 1e-12
            assert np.abs(t @ h @ t.T - np.diag(es.eigenvalues)).max() < 1e-12

    @given(symmetric_matrices, st.integers(-600, 600), st.integers(-200, 200))
    @settings(max_examples=200, deadline=None)
    def test_eigenvalues_scale_with_the_matrix(self, h, k, p):
        # the sweeps run on the matrix rescaled by a power of two, so a
        # power-of-two scale gives the very same bits, and any other scale
        # moves the eigenvalues by rounding only
        base = jacobi_eigh(h).eigenvalues
        assert np.array_equal(jacobi_eigh(h * 2.0**k).eigenvalues, base * 2.0**k)
        s = 10.0**p
        scaled = jacobi_eigh(h * s).eigenvalues / s
        assert np.abs(scaled - base).max() <= 1e-12 * np.abs(base).max()

    def test_matches_library_eigensolver(self):
        # independent oracle route for the eigenvalues
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = rng.standard_normal((4, 4))
            h = (h + h.T) / 2.0
            assert np.abs(jacobi_eigh(h).eigenvalues - np.linalg.eigvalsh(h)).max() < 1e-12

    def test_deterministic_output(self):
        rng = np.random.default_rng(23)
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2.0
        es1, es2 = jacobi_eigh(h), jacobi_eigh(h)
        assert np.array_equal(es1.eigenvalues, es2.eigenvalues)
        assert np.array_equal(es1.diagonalizer, es2.diagonalizer)

    def test_sign_fix_largest_component_positive(self):
        rng = np.random.default_rng(29)
        h = rng.standard_normal((4, 4))
        es = jacobi_eigh(h + h.T)
        for row in es.diagonalizer:
            assert row[np.argmax(np.abs(row))] > 0

    def test_sign_fix_matches_library_on_resonant_catalog(self):
        # the resonant frame matrices of the symmetric configurations have
        # palindromic eigenvectors, two components of equal magnitude; the
        # sign must not depend on which of them rounding makes larger
        for model in catalog():
            coupling = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
            h = rotate(model, resonant_drive(model, (1.0, 2.0, 3.0), coupling)).h_tilde
            w, vecs = np.linalg.eigh(h)
            expected = sign_fixed(vecs.T[np.argsort(w, kind="stable")])
            assert np.abs(jacobi_eigh(h).diagonalizer - expected).max() <= 1e-13, model.id

    def test_symmetry_check_rejects_tiny_non_symmetric_matrix(self):
        # an absolute 1e-12 rule would let this through and return a wrong
        # spectrum: the asymmetry is as large as the matrix itself
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh(np.triu(np.arange(1.0, 17.0).reshape(4, 4)) * 1e-20)

    def test_symmetry_check_accepts_rounding_asymmetry_at_large_scale(self):
        q, _ = np.linalg.qr(np.random.default_rng(41).standard_normal((4, 4)))
        lam = np.array([1e5, 2e5, 3e5, 4e5])
        h = q @ np.diag(lam) @ q.T
        asymmetry = np.abs(h - h.T).max()
        assert 1e-12 < asymmetry < 1e-16 * np.abs(h).max()
        assert np.abs(jacobi_eigh(h).eigenvalues - lam).max() <= 1e-13 * lam.max()

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf):
            h = np.eye(4)
            h[2, 2] = bad
            with pytest.raises(NumericsError, match="non-finite"):
                jacobi_eigh(h)

    def test_eigenvalue_beyond_float_range_raises(self):
        # the sweeps run on the scaled matrix; only the back-scaled largest
        # eigenvalue, 4 x 1e308, leaves the float range
        with pytest.raises(NumericsError, match="overflow"):
            jacobi_eigh(np.full((4, 4), 1e308))
        top = jacobi_eigh(np.full((4, 4), 4e307)).eigenvalues[-1]
        assert abs(top - 1.6e308) <= 1e-13 * 1.6e308

    def test_diagonal_input_takes_no_sweep(self):
        es = jacobi_eigh(np.diag([3.0, -1.0, 2.0, 0.5]))
        assert es.sweeps == 0
        assert np.array_equal(es.eigenvalues, [-1.0, 0.5, 2.0, 3.0])

    def test_sweep_count_on_random_matrices(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            h = rng.standard_normal((4, 4))
            sweeps = jacobi_eigh(h + h.T).sweeps
            assert isinstance(sweeps, int)
            assert 1 <= sweeps <= 6

    @given(rotation_seeds, degenerate_spectra)
    @settings(max_examples=300, deadline=None)
    def test_degenerate_and_near_degenerate_spectra(self, m, lam):
        q, _ = np.linalg.qr(m)
        h = q @ np.diag(lam) @ q.T
        h = (h + h.T) / 2.0
        es = jacobi_eigh(h)
        t = es.diagonalizer
        scale = np.abs(lam).max()
        assert np.abs(t @ t.T - np.eye(4)).max() <= 1e-13
        assert np.abs(t @ h @ t.T - np.diag(es.eigenvalues)).max() <= 1e-13 * scale
        assert np.abs(es.eigenvalues - np.linalg.eigvalsh(h)).max() <= 1e-13 * scale

    def test_degenerate_spectrum(self):
        h = np.diag([2.0, 2.0, -1.0, -1.0])
        es = jacobi_eigh(h)
        assert np.allclose(es.eigenvalues, [-1.0, -1.0, 2.0, 2.0], atol=1e-14)

    def test_rejects_non_symmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            jacobi_eigh(bad)

    def test_rejects_complex_hermitian_input(self):
        # a real cast would drop the imaginary parts and return 0 0 0 0
        # for this matrix, whose spectrum is -1 0 0 1
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1j
        h[1, 0] = -1j
        with pytest.raises(ValueError, match=r"imaginary parts up to 1\.000e\+00"):
            jacobi_eigh(h)

    def test_accepts_complex_input_with_zero_imaginary_parts(self):
        rng = np.random.default_rng(47)
        h = rng.standard_normal((4, 4))
        h = h + h.T
        real, cplx = jacobi_eigh(h), jacobi_eigh(h.astype(complex))
        assert np.array_equal(cplx.eigenvalues, real.eigenvalues)
        assert np.array_equal(cplx.diagonalizer, real.diagonalizer)
        assert cplx.eigenvalues.dtype == np.float64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.eye(3))

    @given(symmetric_matrices)
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_property(self, h):
        es = jacobi_eigh(h)
        scale = max(1.0, float(np.abs(h).max()))
        assert np.abs(
            es.diagonalizer @ h @ es.diagonalizer.T - np.diag(es.eigenvalues)
        ).max() < 1e-12 * scale


class TestComposeFactor:
    def test_zero_angles_identity(self):
        assert np.array_equal(compose_rotations(np.zeros(6)), np.eye(4))

    def test_single_plane_quarter_turn(self):
        angles = np.zeros(6)
        angles[0] = np.pi / 2.0
        r = compose_rotations(angles)
        expected = np.eye(4)
        expected[0, 0] = expected[1, 1] = 0.0
        expected[0, 1] = -1.0
        expected[1, 0] = 1.0
        assert np.abs(r - expected).max() < 1e-15

    def test_plane_order_fixed(self):
        assert PLANES == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    @given(angle_sets)
    @settings(max_examples=100, deadline=None)
    def test_compose_is_special_orthogonal(self, angles):
        r = compose_rotations(angles)
        assert np.abs(r @ r.T - np.eye(4)).max() < 1e-13
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_factor_identity_gives_zero_angles(self):
        assert np.abs(factor_orthogonal(np.eye(4))).max() == 0.0

    def test_principal_branch_recovery(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            angles = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, size=6)
            recovered = factor_orthogonal(compose_rotations(angles))
            assert np.abs(recovered - angles).max() < 1e-10

    def test_round_trip_on_diagonalizers(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            h = rng.standard_normal((4, 4))
            t = det_corrected(jacobi_eigh(h + h.T).diagonalizer)
            angles = factor_orthogonal(t)
            assert np.abs(compose_rotations(angles) - t).max() < 1e-10

    def test_gimbal_alignment_round_trip(self):
        # first column aligned with the last axis: the arcsine branch pins
        # th3 = pi/2 and the elimination must still reproduce the input
        angles = np.array([0.3, -0.4, np.pi / 2.0, 0.7, -0.2, 1.1])
        t = compose_rotations(angles)
        assert np.abs(compose_rotations(factor_orthogonal(t)) - t).max() < 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            factor_orthogonal(np.eye(4) * 1.001)

    def test_rejects_reflections(self):
        reflection = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            factor_orthogonal(reflection)

    def test_plane_rotation_block_convention(self):
        r = plane_rotation(1, 3, 0.25)
        assert r[1, 1] == pytest.approx(np.cos(0.25))
        assert r[1, 3] == pytest.approx(-np.sin(0.25))
        assert r[3, 1] == pytest.approx(np.sin(0.25))
        assert r[0, 0] == 1.0 and r[2, 2] == 1.0


def evolve(solution, c0, t):
    """Level-ordered amplitudes of ``c0`` at time ``t`` through the frame
    solution's evaluation kernel."""
    (amps,) = solution.amplitudes([c0], np.array([t]))
    return StateVector(amps[0])


class TestPropagate:
    """Group laws of the exact propagator, through ``FrameSolution``."""

    @staticmethod
    def resonant_system(mid="I", kappa=0.3):
        m = get_model(mid)
        return solve_frame(m, resonant_drive(m, (1.0, 2.0, 3.0), {tr: kappa for tr in m.allowed}))

    def test_zero_time_is_identity(self):
        sol = self.resonant_system()
        c0 = StateVector.basis(2)
        out = evolve(sol, c0, 0.0)
        assert np.abs(out.amplitudes - c0.amplitudes).max() < 1e-14

    def test_zero_matrix_is_stationary(self):
        sol = self.resonant_system(kappa=0.0)
        assert np.array_equal(sol.frame.h_tilde, np.zeros((4, 4)))
        c0 = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        out = evolve(sol, c0, 7.3)
        assert np.abs(out.amplitudes - c0.amplitudes).max() < 1e-14

    def test_norm_preserved(self):
        sol = self.resonant_system("III")
        for level in (1, 2, 3, 4):
            out = evolve(sol, StateVector.basis(level), 17.0)
            assert abs(np.sum(out.populations()) - 1.0) < 1e-14

    def test_group_property(self):
        sol = self.resonant_system("IV")
        c0 = StateVector.basis(1)
        one_step = evolve(sol, evolve(sol, c0, 2.0), 3.0)
        direct = evolve(sol, c0, 5.0)
        assert np.abs(one_step.amplitudes - direct.amplitudes).max() < 1e-13

    def test_time_reversal(self):
        sol = self.resonant_system("VI")
        c0 = StateVector.basis(3)
        back = evolve(sol, evolve(sol, c0, 4.2), -4.2)
        assert np.abs(back.amplitudes - c0.amplitudes).max() < 1e-13

    def test_matches_matrix_exponential(self):
        # independent oracle: dense eigendecomposition from the library
        sol = self.resonant_system("II", kappa=0.4)
        w, v = np.linalg.eigh(sol.frame.h_tilde)
        t = 6.5
        u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        c0 = StateVector.basis(4)
        expected_rows = u @ c0.amplitudes[::-1]
        out = evolve(sol, c0, t)
        assert np.abs(out.amplitudes - expected_rows[::-1]).max() < 1e-12


class TestEigenSystemType:
    def test_fields_read_only(self):
        es = jacobi_eigh(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert isinstance(es, EigenSystem)
        with pytest.raises(ValueError):
            es.eigenvalues[0] = 9.0
        with pytest.raises(ValueError):
            es.diagonalizer[0, 0] = 9.0
