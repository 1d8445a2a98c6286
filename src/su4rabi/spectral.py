"""Spectral tools for the 4x4 frame matrices.

Two independent pieces live here:

* a deterministic cyclic Jacobi eigensolver for real symmetric 4x4 input,
  returning ascending eigenvalues, a sign-fixed orthogonal diagonalizer and
  the sweep count. A 4x4 matrix is too small for array operations to pay:
  the sweeps run on local Python floats, the ten of the matrix's upper
  triangle and the sixteen of the eigenvector rows, and the six plane
  rotations of a sweep are written out, each updating only the entries it
  touches;
* the six-angle Givens parametrization of SO(4), as the ordered product
  G(1,2) G(1,3) G(1,4) G(2,3) G(2,4) G(3,4) of plane rotations, with a
  constructive factorization inverting it.

Conventions: the diagonalizer T stores eigenvectors in its ROWS, so
``T @ H @ T.T`` is diagonal and ``exp(-iHt) = T.T @ diag(exp(-i L t)) @ T``
(``dynamics.FrameSolution`` evaluates this propagator).
A plane rotation by angle th in plane (p, q) carries the block
``[[cos th, -sin th], [sin th, cos th]]`` in rows/columns (p, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

# Plane order of the six-angle factorization, zero-indexed.
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_SYMMETRY_TOL = 1e-12
_SIGN_TIE_TOL = 1e-12
_ORTHO_TOL = 1e-10
_MAX_SWEEPS = 50

@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues, the row-eigenvector diagonalizer, and the
    number of full Jacobi sweeps that produced them."""

    eigenvalues: np.ndarray
    diagonalizer: np.ndarray
    sweeps: int


def jacobi_eigh(h: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric 4x4 matrix by cyclic Jacobi sweeps.

    Input whose asymmetry ``max|h - h.T|`` exceeds 1e-12 of ``max|h|`` is
    rejected (``ValueError``), and so is complex input with any non-zero
    imaginary part (``ValueError``; a complex matrix whose imaginary parts
    are all zero is read as its real part) and input with a NaN or infinite
    entry (``NumericsError``). The sweeps run on the symmetric part of the
    matrix scaled by an exact power of two, so that its largest entry lies in
    [1/2, 1), and the eigenvalues are scaled back; the result does not
    depend on the scale, however small or large, and an eigenvalue beyond
    the float range raises ``NumericsError``. Sweeps visit the planes in the
    fixed order of ``PLANES`` until the off-diagonal Frobenius norm falls
    below 1e-14 relative to the matrix scale; convergence is quadratic and
    a handful of sweeps suffices.

    The sweeps run on local Python floats, without lists or an inner loop:
    the scaled symmetric part lives in its upper triangle ``a_pq`` (p <= q,
    ten floats, written there straight from the input), the eigenvector
    rows in ``v_pk`` (sixteen). Each of the six plane blocks, in ``PLANES``
    order, updates the pivot diagonals by Rutishauser's ``a_pp - t a_pq``,
    ``a_qq + t a_pq``, zeroes the pivot, rotates the four entries that pair
    p and q with the other two indices, and rebuilds eigenvector rows p and
    q.

    Rows of the returned diagonalizer are sorted by eigenvalue and
    sign-fixed: the first component whose magnitude is within 1e-12 of the
    row's largest is positive. The tolerance makes the sign stable when two
    components of an eigenvector have equal magnitude up to rounding, as in
    the palindromic eigenvectors of resonant symmetric configurations.
    """
    h = np.asarray(h)
    if h.dtype.kind == "c":
        if np.any(h.imag != 0.0):
            raise ValueError(
                "matrix is not real: imaginary parts up to"
                f" {float(np.abs(h.imag).max()):.3e}"
            )
        h = h.real
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    entries = h.astype(float, copy=False).ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise NumericsError("matrix has non-finite entries")
    largest = max(map(abs, entries))
    h00, h01, h02, h03, h10, h11, h12, h13, h20, h21, h22, h23, h30, h31, h32, h33 = entries
    if max(abs(h01 - h10), abs(h02 - h20), abs(h03 - h30), abs(h12 - h21),
           abs(h13 - h31), abs(h23 - h32)) > _SYMMETRY_TOL * largest:
        raise ValueError("matrix is not symmetric")

    # a_pq (p <= q) is the scaled symmetric part, v_pk the eigenvector
    # estimates as rows: the transpose of the accumulated rotation
    exponent = math.frexp(largest)[1]
    ldexp, hypot, e = math.ldexp, math.hypot, -exponent
    a00, a11, a22, a33 = ldexp(h00, e), ldexp(h11, e), ldexp(h22, e), ldexp(h33, e)
    a01 = (ldexp(h01, e) + ldexp(h10, e)) / 2.0
    a02 = (ldexp(h02, e) + ldexp(h20, e)) / 2.0
    a03 = (ldexp(h03, e) + ldexp(h30, e)) / 2.0
    a12 = (ldexp(h12, e) + ldexp(h21, e)) / 2.0
    a13 = (ldexp(h13, e) + ldexp(h31, e)) / 2.0
    a23 = (ldexp(h23, e) + ldexp(h32, e)) / 2.0
    tol = 1e-14 * max(1.0, hypot(a00, a01, a02, a03, a01, a11, a12, a13,
                                 a02, a12, a22, a23, a03, a13, a23, a33))
    v00 = v11 = v22 = v33 = 1.0
    v01 = v02 = v03 = v10 = v12 = v13 = v20 = v21 = v23 = v30 = v31 = v32 = 0.0
    skip = tol / 10.0
    # one block per plane (p, q) in PLANES order, r < u the other two
    # indices; t = sign(tau) / (|tau| + hypot(1, tau)), and 1 at tau = +-0
    for sweeps in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * (a01 * a01 + a02 * a02 + a03 * a03
                               + a12 * a12 + a13 * a13 + a23 * a23))
        if off < tol:
            break
        if not -skip < a01 < skip:  # (0, 1), r = 2, u = 3
            tau = (a11 - a00) / (2.0 * a01)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a00 -= t * a01
            a11 += t * a01
            a01 = 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
            a03, a13 = c * a03 - s * a13, s * a03 + c * a13
            v00, v10 = c * v00 - s * v10, s * v00 + c * v10
            v01, v11 = c * v01 - s * v11, s * v01 + c * v11
            v02, v12 = c * v02 - s * v12, s * v02 + c * v12
            v03, v13 = c * v03 - s * v13, s * v03 + c * v13
        if not -skip < a02 < skip:  # (0, 2), r = 1, u = 3
            tau = (a22 - a00) / (2.0 * a02)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a00 -= t * a02
            a22 += t * a02
            a02 = 0.0
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
            a03, a23 = c * a03 - s * a23, s * a03 + c * a23
            v00, v20 = c * v00 - s * v20, s * v00 + c * v20
            v01, v21 = c * v01 - s * v21, s * v01 + c * v21
            v02, v22 = c * v02 - s * v22, s * v02 + c * v22
            v03, v23 = c * v03 - s * v23, s * v03 + c * v23
        if not -skip < a03 < skip:  # (0, 3), r = 1, u = 2
            tau = (a33 - a00) / (2.0 * a03)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a00 -= t * a03
            a33 += t * a03
            a03 = 0.0
            a01, a13 = c * a01 - s * a13, s * a01 + c * a13
            a02, a23 = c * a02 - s * a23, s * a02 + c * a23
            v00, v30 = c * v00 - s * v30, s * v00 + c * v30
            v01, v31 = c * v01 - s * v31, s * v01 + c * v31
            v02, v32 = c * v02 - s * v32, s * v02 + c * v32
            v03, v33 = c * v03 - s * v33, s * v03 + c * v33
        if not -skip < a12 < skip:  # (1, 2), r = 0, u = 3
            tau = (a22 - a11) / (2.0 * a12)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a11 -= t * a12
            a22 += t * a12
            a12 = 0.0
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
            a13, a23 = c * a13 - s * a23, s * a13 + c * a23
            v10, v20 = c * v10 - s * v20, s * v10 + c * v20
            v11, v21 = c * v11 - s * v21, s * v11 + c * v21
            v12, v22 = c * v12 - s * v22, s * v12 + c * v22
            v13, v23 = c * v13 - s * v23, s * v13 + c * v23
        if not -skip < a13 < skip:  # (1, 3), r = 0, u = 2
            tau = (a33 - a11) / (2.0 * a13)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a11 -= t * a13
            a33 += t * a13
            a13 = 0.0
            a01, a03 = c * a01 - s * a03, s * a01 + c * a03
            a12, a23 = c * a12 - s * a23, s * a12 + c * a23
            v10, v30 = c * v10 - s * v30, s * v10 + c * v30
            v11, v31 = c * v11 - s * v31, s * v11 + c * v31
            v12, v32 = c * v12 - s * v32, s * v12 + c * v32
            v13, v33 = c * v13 - s * v33, s * v13 + c * v33
        if not -skip < a23 < skip:  # (2, 3), r = 0, u = 1
            tau = (a33 - a22) / (2.0 * a23)
            t = 1.0 / (tau + hypot(1.0, tau)) if tau >= 0.0 else -1.0 / (hypot(1.0, tau) - tau)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            a22 -= t * a23
            a33 += t * a23
            a23 = 0.0
            a02, a03 = c * a02 - s * a03, s * a02 + c * a03
            a12, a13 = c * a12 - s * a13, s * a12 + c * a13
            v20, v30 = c * v20 - s * v30, s * v20 + c * v30
            v21, v31 = c * v21 - s * v31, s * v21 + c * v31
            v22, v32 = c * v22 - s * v32, s * v22 + c * v32
            v23, v33 = c * v23 - s * v33, s * v23 + c * v33
    else:
        raise NumericsError("Jacobi sweeps did not converge")

    rows = ((v00, v01, v02, v03), (v10, v11, v12, v13),
            (v20, v21, v22, v23), (v30, v31, v32, v33))
    ranked = sorted(zip((a00, a11, a22, a33), range(4), rows))  # ties in index order
    try:
        values = [ldexp(value, exponent) for value, _, _ in ranked]
    except OverflowError:
        raise NumericsError("eigenvalues overflow the float range") from None
    for _, _, row in ranked:
        x0, x1, x2, x3 = row
        m0, m1, m2, m3 = abs(x0), abs(x1), abs(x2), abs(x3)
        floor = max(m0, m1, m2, m3) - _SIGN_TIE_TOL
        lead = x0 if m0 >= floor else x1 if m1 >= floor else x2 if m2 >= floor else x3
        values += (-x0, -x1, -x2, -x3) if lead < 0.0 else row
    # one read-only block: the eigenvalues, then the diagonalizer's rows
    out = np.array(values)
    out.shape = (5, 4)
    out.flags.writeable = False
    return EigenSystem(out[0], out[1:], sweeps)


def plane_rotation(p: int, q: int, theta: float) -> np.ndarray:
    """Rotation by ``theta`` in coordinate plane (p, q), identity elsewhere."""
    r = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    r[p, p] = c
    r[q, q] = c
    r[p, q] = -s
    r[q, p] = s
    return r


def compose_rotations(angles) -> np.ndarray:
    """Product of the six plane rotations in the fixed plane order."""
    angles = np.asarray(angles, dtype=float).reshape(-1)
    if angles.size != len(PLANES):
        raise ValueError(f"expected {len(PLANES)} angles, got {angles.size}")
    r = np.eye(4)
    for (p, q), theta in zip(PLANES, angles):
        r = r @ plane_rotation(p, q, theta)
    return r


def factor_orthogonal(t: np.ndarray) -> np.ndarray:
    """Recover six angles with ``compose_rotations(angles) == t``.

    Constructive Givens elimination: the first column fixes the three angles
    of the (1,*) planes (spherical-coordinate extraction), peeling them off
    leaves an SO(3) block for the (2,*) planes, and a final 2x2 block gives
    the last angle. Angles land in (-pi, pi], with the arcsine-extracted ones
    on the principal branch [-pi/2, pi/2]; on that branch the factorization
    inverts ``compose_rotations`` angle by angle.

    Rejects input that is not special orthogonal (orthogonality to 1e-10,
    positive determinant).
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {t.shape}")
    if float(np.abs(t @ t.T - np.eye(4)).max()) > _ORTHO_TOL:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(t) < 0.0:
        raise ValueError("matrix has determinant -1; not a rotation")

    th3 = math.asin(min(1.0, max(-1.0, t[3, 0])))
    th2 = math.atan2(t[2, 0], math.hypot(t[0, 0], t[1, 0]))
    th1 = math.atan2(t[1, 0], t[0, 0])
    q = (
        plane_rotation(0, 3, -th3)
        @ plane_rotation(0, 2, -th2)
        @ plane_rotation(0, 1, -th1)
        @ t
    )
    th5 = math.asin(min(1.0, max(-1.0, q[3, 1])))
    th4 = math.atan2(q[2, 1], q[1, 1])
    q2 = plane_rotation(1, 3, -th5) @ plane_rotation(1, 2, -th4) @ q
    th6 = math.atan2(q2[3, 2], q2[2, 2])
    return np.array([th1, th2, th3, th4, th5, th6])
