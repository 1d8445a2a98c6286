"""Jacobi eigensolver, six-angle factorization, and exact propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from su4rabi.frame import resonant_drive, rotate
from su4rabi.models import StateVector, catalog, get_model
from su4rabi.spectral import (
    PLANES,
    EigenSystem,
    compose_rotations,
    factor_orthogonal,
    jacobi_eigh,
    plane_rotation,
    propagate,
)

symmetric_matrices = arrays(
    np.float64, (4, 4), elements=st.floats(-3, 3, allow_nan=False, width=32)
).map(lambda a: (a + a.T) / 2.0)

angle_sets = arrays(
    np.float64, (6,),
    elements=st.floats(-np.pi, np.pi, allow_nan=False, exclude_min=True),
)


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

    def test_degenerate_spectrum(self):
        h = np.diag([2.0, 2.0, -1.0, -1.0])
        es = jacobi_eigh(h)
        assert np.allclose(es.eigenvalues, [-1.0, -1.0, 2.0, 2.0], atol=1e-14)

    def test_rejects_non_symmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            jacobi_eigh(bad)

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


class TestPropagate:
    @staticmethod
    def resonant_system(mid="I"):
        m = get_model(mid)
        drive = resonant_drive(m, (1.0, 2.0, 3.0), {tr: 0.3 for tr in m.allowed})
        return jacobi_eigh(rotate(m, drive).h_tilde)

    def test_zero_time_is_identity(self):
        es = self.resonant_system()
        c0 = StateVector.basis(2)
        out = propagate(es, c0, 0.0)
        assert np.abs(out.amplitudes - c0.amplitudes).max() < 1e-14

    def test_zero_matrix_is_stationary(self):
        es = jacobi_eigh(np.zeros((4, 4)))
        c0 = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        out = propagate(es, c0, 7.3)
        assert np.abs(out.amplitudes - c0.amplitudes).max() < 1e-14

    def test_norm_preserved(self):
        es = self.resonant_system("III")
        for level in (1, 2, 3, 4):
            out = propagate(es, StateVector.basis(level), 17.0)
            assert abs(np.sum(out.populations()) - 1.0) < 1e-14

    def test_group_property(self):
        es = self.resonant_system("IV")
        c0 = StateVector.basis(1)
        one_step = propagate(es, propagate(es, c0, 2.0), 3.0)
        direct = propagate(es, c0, 5.0)
        assert np.abs(one_step.amplitudes - direct.amplitudes).max() < 1e-13

    def test_time_reversal(self):
        es = self.resonant_system("VI")
        c0 = StateVector.basis(3)
        back = propagate(es, propagate(es, c0, 4.2), -4.2)
        assert np.abs(back.amplitudes - c0.amplitudes).max() < 1e-13

    def test_matches_matrix_exponential(self):
        # independent oracle: dense eigendecomposition from the library
        m = get_model("II")
        drive = resonant_drive(m, (1.0, 2.0, 3.0), {tr: 0.4 for tr in m.allowed})
        h = rotate(m, drive).h_tilde
        es = jacobi_eigh(h)
        w, v = np.linalg.eigh(h)
        t = 6.5
        u = v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T
        c0 = StateVector.basis(4)
        expected_rows = u @ c0.amplitudes[::-1]
        out = propagate(es, c0, t)
        assert np.abs(out.amplitudes - expected_rows[::-1]).max() < 1e-12

    def test_rejects_bad_norm(self):
        es = self.resonant_system()
        good = StateVector.basis(1)
        bad = StateVector(np.array([1.0, 1e-4, 0.0, 0.0], dtype=complex), norm_tol=1e-6)
        with pytest.raises(ValueError):
            propagate(es, bad, 1.0)
        propagate(es, good, 1.0)


class TestEigenSystemType:
    def test_fields_read_only(self):
        es = jacobi_eigh(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert isinstance(es, EigenSystem)
        with pytest.raises(ValueError):
            es.eigenvalues[0] = 9.0
