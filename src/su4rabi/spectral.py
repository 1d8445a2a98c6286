"""Spectral tools for the 4x4 frame matrices.

Two independent pieces live here:

* a deterministic cyclic Jacobi eigensolver for real symmetric 4x4 input,
  returning ascending eigenvalues, a sign-fixed orthogonal diagonalizer and
  the sweep count. A 4x4 matrix is too small for array operations to pay:
  the sweeps run on nested lists of Python floats, and each plane rotation
  updates only the rows and columns it touches, in place;
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

# Each plane (p, q) followed by the two indices r < u outside it.
_ROTATIONS = tuple((p, q, *(r for r in range(4) if r not in (p, q))) for p, q in PLANES)


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

    The sweeps run on Python floats, without an inner loop: each rotation
    (p, q, r, u) updates the pivot diagonals by Rutishauser's ``a_pp - t
    a_pq``, ``a_qq + t a_pq``, zeroes the pivot pair, rotates the entries
    (r, p), (r, q), (u, p), (u, q) and their mirrors in place, and rebuilds
    eigenvector rows p and q from their unpacked values.

    Rows of the returned diagonalizer are sorted by eigenvalue and
    sign-fixed: the first component whose magnitude is within 1e-12 of the
    row's largest is positive. The tolerance makes the sign stable when two
    components of an eigenvector have equal magnitude up to rounding, as in
    the palindromic eigenvectors of resonant symmetric configurations.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h):
        if np.any(h.imag != 0.0):
            raise ValueError(
                "matrix is not real: imaginary parts up to"
                f" {float(np.abs(h.imag).max()):.3e}"
            )
        h = h.real
    h = np.asarray(h, dtype=float)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    rows = r0, r1, r2, r3 = h.tolist()
    entries = r0 + r1 + r2 + r3
    if not all(map(math.isfinite, entries)):
        raise NumericsError("matrix has non-finite entries")
    largest = max(map(abs, entries))
    if max(abs(r0[1] - r1[0]), abs(r0[2] - r2[0]), abs(r0[3] - r3[0]), abs(r1[2] - r2[1]),
           abs(r1[3] - r3[1]), abs(r2[3] - r3[2])) > _SYMMETRY_TOL * largest:
        raise ValueError("matrix is not symmetric")

    exponent = math.frexp(largest)[1]
    a = [[math.ldexp(x, -exponent) for x in row] for row in rows]
    for p, q in PLANES:
        a[p][q] = a[q][p] = (a[p][q] + a[q][p]) / 2.0
    tol = 1e-14 * max(1.0, math.hypot(*a[0], *a[1], *a[2], *a[3]))
    # v holds the eigenvector estimates as rows: the transpose of the
    # accumulated rotation, whose columns p, q each rotation mixes
    v = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    a0, a1, a2, a3 = a
    skip = tol / 10.0
    hypot = math.hypot
    for sweeps in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * (a0[1] * a0[1] + a0[2] * a0[2] + a0[3] * a0[3]
                               + a1[2] * a1[2] + a1[3] * a1[3] + a2[3] * a2[3]))
        if off < tol:
            break
        for p, q, r, u in _ROTATIONS:
            ap, aq, ar, au = a[p], a[q], a[r], a[u]
            apq = ap[q]
            if -skip < apq < skip:
                continue
            tau = (aq[q] - ap[p]) / (2.0 * apq)
            # t = sign(tau) / (|tau| + hypot(1, tau)), and 1 at tau = 0
            t = (1.0 / (tau + hypot(1.0, tau)) if tau > 0.0
                 else -1.0 / (hypot(1.0, tau) - tau) if tau < 0.0 else 1.0)
            c = 1.0 / hypot(1.0, t)
            s = t * c
            ap[p] -= t * apq
            aq[q] += t * apq
            ap[q] = aq[p] = 0.0
            x, y = ar[p], ar[q]
            ar[p] = ap[r] = c * x - s * y
            ar[q] = aq[r] = s * x + c * y
            x, y = au[p], au[q]
            au[p] = ap[u] = c * x - s * y
            au[q] = aq[u] = s * x + c * y
            x0, x1, x2, x3 = v[p]
            y0, y1, y2, y3 = v[q]
            v[p] = [c * x0 - s * y0, c * x1 - s * y1, c * x2 - s * y2, c * x3 - s * y3]
            v[q] = [s * x0 + c * y0, s * x1 + c * y1, s * x2 + c * y2, s * x3 + c * y3]
    else:
        raise NumericsError("Jacobi sweeps did not converge")

    diagonal = [a0[0], a1[1], a2[2], a3[3]]
    order = sorted(range(4), key=diagonal.__getitem__)
    try:
        eigenvalues = np.array([math.ldexp(diagonal[k], exponent) for k in order])
    except OverflowError:
        raise NumericsError("eigenvalues overflow the float range") from None
    vectors = []
    for k in order:
        x0, x1, x2, x3 = vec = v[k]
        floor = max(abs(x0), abs(x1), abs(x2), abs(x3)) - _SIGN_TIE_TOL
        lead = (x0 if abs(x0) >= floor else x1 if abs(x1) >= floor
                else x2 if abs(x2) >= floor else x3)
        vectors.append([-x0, -x1, -x2, -x3] if lead < 0.0 else vec)
    diag = np.array(vectors)
    eigenvalues.setflags(write=False)
    diag.setflags(write=False)
    return EigenSystem(eigenvalues=eigenvalues, diagonalizer=diag, sweeps=sweeps)


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
