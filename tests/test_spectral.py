"""Jacobi eigensolver, six-angle factorization, and exact propagation."""

import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from su4rabi.cli import STANDARD_COUPLINGS
from su4rabi.dynamics import solve_frame
from su4rabi.errors import NumericsError
from su4rabi.frame import resonant_drive, rotate
from su4rabi.models import DriveParams, StateVector, catalog, get_model, row_of
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


# An integer-valued symmetric matrix, so that an int64 copy is the same matrix.
LAYOUT_MATRIX = ((4.0, 1.0, 0.0, 2.0), (1.0, -3.0, 5.0, 0.0),
                 (0.0, 5.0, 2.0, -1.0), (2.0, 0.0, -1.0, 6.0))


def input_layouts(rows):
    """The same 4x4 matrix in each form ``jacobi_eigh`` takes."""
    base = np.array(rows, dtype=float)
    read_only = base.copy()
    read_only.flags.writeable = False
    wide = np.zeros((8, 8), dtype=complex)
    wide[::2, ::2] = base
    return {
        "C-order float64": base,
        "F-order": np.asfortranarray(base),
        "transposed view": np.ascontiguousarray(base.T).T,
        "strided view": wide.real[::2, ::2],
        "read-only": read_only,
        "int64": base.astype(np.int64),
        "complex, zero imaginary parts": base.astype(complex),
        "nested list": base.tolist(),
    }


class TestJacobiInputLayouts:
    @pytest.mark.parametrize("layout", list(input_layouts(LAYOUT_MATRIX)))
    def test_every_layout_gives_the_same_bits(self, layout):
        reference = jacobi_eigh(np.array(LAYOUT_MATRIX))
        es = jacobi_eigh(input_layouts(LAYOUT_MATRIX)[layout])
        assert es.eigenvalues.dtype == es.diagonalizer.dtype == np.float64
        assert es.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
        assert es.diagonalizer.tobytes() == reference.diagonalizer.tobytes()
        assert es.sweeps == reference.sweeps

    @pytest.mark.parametrize("matrix,error", [
        (np.array(LAYOUT_MATRIX) + 1e-3j * np.eye(4), ValueError),  # imaginary part
        (np.array(LAYOUT_MATRIX)[:3, :3], ValueError),  # shape
        (np.array(LAYOUT_MATRIX)[None], ValueError),  # shape
        (np.where(np.eye(4) > 0, np.nan, LAYOUT_MATRIX), NumericsError),
        (np.where(np.eye(4) > 0, np.inf, LAYOUT_MATRIX), NumericsError),
        (np.triu(LAYOUT_MATRIX), ValueError),  # asymmetry
    ])
    def test_each_refusal_keeps_its_class(self, matrix, error):
        forms = [matrix, np.asfortranarray(matrix), matrix.tolist()]
        for form in forms:
            with pytest.raises(Exception) as caught:
                jacobi_eigh(form)
            assert caught.type is error


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


UNIT_ROUNDOFF = 2.0**-53


def ladder_spectrum(a, b, c):
    """Ascending eigenvalues of the zero-diagonal ladder with off-diagonals
    (a, b, c): +-lam_plus and +-lam_minus, the roots of its matching
    polynomial x^4 - S x^2 + a^2 c^2, S = a^2 + b^2 + c^2. The discriminant
    is formed as a product of sums of squares, without cancellation."""
    s = a * a + b * b + c * c
    root = math.sqrt(((a - c) ** 2 + b * b) * ((a + c) ** 2 + b * b))
    lam_plus = math.sqrt((s + root) / 2.0)
    lam_minus = a * c / lam_plus
    return np.array([-lam_plus, -lam_minus, lam_minus, lam_plus])


class TestResonantClosedForm:
    def test_jacobi_matches_the_ladder_spectrum(self):
        # At resonance each frame matrix is a relabelled ladder with zero
        # diagonal, up to the rounding of E_i + K_i, which is of order
        # u max|E| and so is added to the bound: it dominates when the
        # couplings lie far below the splittings. Couplings span 6 decades;
        # a Jacobi stopping rule loosened from 1e-14 to 1e-10 fails on 5 of
        # these 12 000 drives, by up to 1.4e5 u max|lam|.
        rng = random.Random(1406)
        for m in catalog():
            pairs = [(max(p), min(p)) for p in zip(m.path, m.path[1:])]
            for _ in range(2000):
                coupling = {tr: 10.0 ** rng.uniform(-3.0, 3.0) for tr in pairs}
                omega = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
                frame = rotate(m, resonant_drive(m, omega, coupling))
                exact = ladder_spectrum(*(coupling[tr] for tr in pairs))
                got = jacobi_eigh(frame.h_tilde).eigenvalues
                bound = (16.0 * UNIT_ROUNDOFF * np.abs(exact).max()
                         + np.abs(frame.diag_detunings).max())
                assert np.abs(got - exact).max() <= bound, (m.id, coupling, omega)


def double_key(x: float) -> int:
    """The place of a double on the ordered line of doubles: adjacent doubles
    have adjacent keys, and +0.0 and -0.0 share the key 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def key_double(key: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", key if key >= 0 else -key | 1 << 63))[0]


def times_2_1074(x: float) -> int:
    """x 2^1074 as an integer, exactly: every double is a multiple of 2^-1074."""
    num, den = x.as_integer_ratio()
    return num * (2**1074 // den)


def eigenvalues_below(diag, off_squared, x: float) -> int:
    """The exact number of eigenvalues below ``x`` of an unreduced symmetric
    tridiagonal matrix, from its diagonal and its squared off-diagonal, both
    given by ``times_2_1074``.

    The leading minors p_k = det(T_k - x), p_0 = 1, follow p_k = (d_k - x)
    p_(k-1) - e_(k-1)^2 p_(k-2), and p_k / p_(k-1) is the k-th pivot of the
    LDL^T factorization of T - x; the negative pivots, or the sign changes
    along the minors, count the eigenvalues below x (Sturm). The arithmetic
    is that of ``fractions.Fraction`` with the common denominator 2^1074
    taken out of every entry, which scales p_k by a positive factor. A
    vanishing minor is skipped: for k < 4 its neighbours have opposite
    signs, and p_4 = 0 makes x an eigenvalue, which is not below x.
    """
    x = times_2_1074(x)
    count, sign, before, minor = 0, 1, 0, 1
    for d, e2 in zip(diag, [0] + off_squared):
        before, minor = minor, (d - x) * minor - e2 * before
        if minor:
            count += (minor > 0) != (sign > 0)
            sign = minor
    return count


def exact_eigenvalue_brackets(path_ordered: np.ndarray) -> list[tuple[float, float]]:
    """Adjacent doubles lo < hi with lo <= lambda < hi for each eigenvalue
    lambda of a 4x4 unreduced symmetric tridiagonal matrix, ascending: a
    bisection on ``double_key`` of the Sturm count, at most 64 counts each."""
    diag = [times_2_1074(v) for v in np.diag(path_ordered).tolist()]
    off = [times_2_1074(v) for v in np.diag(path_ordered, 1).tolist()]
    assert all(off), "the count needs an unreduced matrix"
    off_squared = [e * e for e in off]
    # twice the Gershgorin radius, past its rounding
    r = 2.0 * float(np.abs(path_ordered).sum(axis=1).max())
    assert eigenvalues_below(diag, off_squared, -r) == 0
    assert eigenvalues_below(diag, off_squared, r) == 4
    brackets = []
    for k in range(4):
        lo, hi = double_key(-r), double_key(r)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if eigenvalues_below(diag, off_squared, key_double(mid)) <= k:
                lo = mid
            else:
                hi = mid
        brackets.append((key_double(lo), key_double(hi)))
    return brackets


# jacobi_eigh's largest eigenvalue error on the 360 drives of
# TestExactEigenvalues was 5.96 u max|lam|, and 7.6 over 25 seeds of the same
# family (9 000 drives); 8.5 was the worst in 7 200 more, drawn alike with
# NumPy's generator. 16 leaves a margin of about two over all of them
JACOBI_EIGENVALUE_C = 16.0


class TestExactEigenvalues:
    """``jacobi_eigh`` against the exact eigenvalues of frame matrices.

    Permuted into path order, every frame matrix is exactly tridiagonal, so
    a Sturm count brackets each of its eigenvalues between adjacent doubles.
    """

    @pytest.mark.parametrize("diag,off,spectrum", [
        ((0.0, 0.0, 0.0, 0.0), (2.0, 3.0, 2.0), (-4.0, -1.0, 1.0, 4.0)),
        ((-2.0, 1.0, 2.0, -1.0), (1.0, 3.0, 2.0), (-3.0, -2.0, 0.0, 5.0)),
    ])
    def test_brackets_of_an_integer_spectrum(self, diag, off, spectrum):
        # each eigenvalue is a double, so it is the lower end of its bracket;
        # the bisection meets vanishing minors at every eigenvalue and at 0
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = [(lam, float(np.nextafter(lam, np.inf))) for lam in spectrum]
        assert exact_eigenvalue_brackets(matrix) == expected

    def test_jacobi_lies_within_c_u_of_the_exact_eigenvalues(self):
        # 360 seeded drives over the six models, resonant and detuned:
        # couplings over 1e-3..1e3 and field detunings of +-1e-4..1e3. Every
        # third drive couples the path's middle pair strongly and its ends
        # weakly, which puts two eigenvalues a few 1e-9 max|lam| apart; there
        # a Jacobi stopping rule loosened from 1e-14 to 1e-10 misses the bound
        # 3 000-fold on the first such drive; uniform draws alone caught it on
        # 3 of 3 000 drives
        rng = random.Random(1406_4016)
        for i in range(360):
            m = catalog()[i % 6]
            pairs = [(max(p), min(p)) for p in zip(m.path, m.path[1:])]
            if i % 3 == 2:
                exponents = (rng.uniform(-3, -2), rng.uniform(2, 3), rng.uniform(-3, -2))
            else:
                exponents = tuple(rng.uniform(-3, 3) for _ in pairs)
            coupling = {tr: 10.0**e for tr, e in zip(pairs, exponents)}
            drive = resonant_drive(m, (1.0, 2.0, 3.0), coupling)
            if (i // 6) % 2:
                offsets = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4, 3) for _ in pairs]
                fields = {tr: drive.field_freq[tr] + x for tr, x in zip(pairs, offsets)}
                drive = DriveParams(omega=drive.omega, field_freq=fields, coupling=coupling)
            h = rotate(m, drive).h_tilde
            rows = [row_of(level) for level in m.path]
            path_ordered = h[np.ix_(rows, rows)]
            assert np.array_equal(path_ordered, np.triu(np.tril(path_ordered, 1), -1))
            lam = jacobi_eigh(h).eigenvalues
            # the exact eigenvalue lies in [lo, hi), so this bounds the error
            brackets = exact_eigenvalue_brackets(path_ordered)
            error = max(max(abs(x - lo), abs(x - hi)) for x, (lo, hi) in zip(lam.tolist(), brackets))
            bound = JACOBI_EIGENVALUE_C * UNIT_ROUNDOFF * float(np.abs(lam).max())
            assert error <= bound, (m.id, coupling, drive.field_freq, error / bound)


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


# Decades of the pinned draw, parsed from literals (no libm power).
PIN_SCALES = tuple(float(f"1e{k}") for k in range(-8, 9))
# sha256 of the Jacobi output for ``pinned_matrices()``. The Jacobi
# arithmetic runs on Python floats (sqrt, hypot, copysign, frexp, ldexp),
# so the digest holds on every supported Python; a change to the solver's
# operation order moves it.
JACOBI_DIGEST = "2d90103f80ddcdeb5b38a7e96957710fc5cdea5a08670a34a840aa05946bf70b"


def pinned_matrices(count=3000):
    """Symmetric 4x4 matrices as nested Python floats, ``random.Random(2014)``:
    entries uniform in [-s, s] for a decade s in 1e-8..1e8, each off-diagonal
    entry zero with probability 1/5 (the skipped-rotation path), and every
    tenth matrix a zero-diagonal persymmetric ladder (palindromic
    eigenvectors, the sign-tie path)."""
    rng = random.Random(2014)
    matrices = []
    for k in range(count):
        s = rng.choice(PIN_SCALES)
        rows = [[0.0] * 4 for _ in range(4)]
        if k % 10 == 9:
            a, b = rng.uniform(0.0, s), rng.uniform(0.0, s)
            for p, x in ((0, a), (1, b), (2, a)):
                rows[p][p + 1] = rows[p + 1][p] = x
        else:
            for p in range(4):
                rows[p][p] = rng.uniform(-s, s)
            for p, q in PLANES:
                if rng.random() >= 0.2:
                    rows[p][q] = rows[q][p] = rng.uniform(-s, s)
        matrices.append(rows)
    return matrices


# Powers of two the frame matrices are rescaled by: 2^-1000 takes the
# rounding-level diagonals of resonant frames into the subnormal range.
FRAME_SCALE_EXPONENTS = (-1000, -600, -60, 60, 600, 1000)
# sha256 of the Jacobi output for ``frame_matrices()`` and
# ``zero_pattern_matrices()``, in that order; like ``JACOBI_DIGEST`` it
# moves with any change to the solver's operation order. The inputs come
# from ``resonant_drive`` and ``rotate``, so FRAME_INPUTS_DIGEST pins their
# bytes: when only FRAME_DIGEST moves, the solver changed.
FRAME_DIGEST = "731d027dd90335d7efb993707ad354778bf7dd723d332ad449b9a56fc57173b2"
FRAME_INPUTS_DIGEST = "81b4f68cc1b14fc52328354ebe6e9023d1f49b51db88cf53ecdace511a455065"


def frame_matrices(drives=25):
    """Frame matrices of every catalog model, ``random.Random(1406)``: per
    drive the resonant matrix and a detuned one (each field frequency off its
    level gap by up to a decade in 1e-3..1e3), couplings in 1e-3..1e3, each
    followed by its exact rescalings by 2^k for k in FRAME_SCALE_EXPONENTS."""
    rng = random.Random(1406)
    decades = PIN_SCALES[5:12]
    matrices = []
    for m in catalog():
        for _ in range(drives):
            omega = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
            transitions = m.sorted_transitions()
            coupling = {tr: rng.choice(decades) * rng.uniform(0.1, 1.0) for tr in transitions}
            resonant = resonant_drive(m, omega, coupling)
            field = {tr: resonant.field_freq[tr] + rng.choice(decades) * rng.uniform(-1.0, 1.0)
                     for tr in transitions}
            for drive in (resonant, DriveParams(omega=omega, field_freq=field, coupling=coupling)):
                rows = rotate(m, drive).h_tilde.tolist()
                matrices.append(rows)
                for k in FRAME_SCALE_EXPONENTS:
                    matrices.append([[math.ldexp(x, k) for x in row] for row in rows])
    return matrices


def zero_pattern_matrices():
    """Symmetric matrices with every one of the 64 zero patterns of the six
    off-diagonal planes, ``random.Random(64)``: per pattern a random
    diagonal and a zero one (tau = 0 on the first rotation), the remaining
    off-diagonal entries uniform in [-1, 1]."""
    rng = random.Random(64)
    matrices = []
    for mask in range(64):
        for zero_diagonal in (False, True):
            rows = [[0.0] * 4 for _ in range(4)]
            if not zero_diagonal:
                for p in range(4):
                    rows[p][p] = rng.uniform(-1.0, 1.0)
            for bit, (p, q) in enumerate(PLANES):
                if not mask >> bit & 1:
                    rows[p][q] = rows[q][p] = rng.uniform(-1.0, 1.0)
            matrices.append(rows)
    return matrices


def solver_digest(matrices):
    """sha256 over the eigenvalues, diagonalizer and sweep count of each."""
    digest = hashlib.sha256()
    for rows in matrices:
        es = jacobi_eigh(np.array(rows))
        digest.update(es.eigenvalues.astype("<f8").tobytes())
        digest.update(es.diagonalizer.astype("<f8").tobytes())
        digest.update(es.sweeps.to_bytes(2, "little"))
    return digest.hexdigest()


class TestPinnedBits:
    def test_jacobi_digest(self):
        assert solver_digest(pinned_matrices()) == JACOBI_DIGEST

    def test_frame_inputs_digest(self):
        digest = hashlib.sha256()
        for rows in frame_matrices() + zero_pattern_matrices():
            digest.update(np.array(rows, dtype="<f8").tobytes())
        assert digest.hexdigest() == FRAME_INPUTS_DIGEST

    def test_frame_digest(self):
        assert solver_digest(frame_matrices() + zero_pattern_matrices()) == FRAME_DIGEST
