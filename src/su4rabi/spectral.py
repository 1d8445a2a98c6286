"""Spectral tools for the 4x4 frame matrices.

Three independent pieces live here:

* a deterministic cyclic Jacobi eigensolver for real symmetric 4x4 input,
  returning ascending eigenvalues and a sign-fixed orthogonal diagonalizer;
* the six-angle Givens parametrization of SO(4), as the ordered product
  G(1,2) G(1,3) G(1,4) G(2,3) G(2,4) G(3,4) of plane rotations, with a
  constructive factorization inverting it;
* the exact propagator built from an eigensystem.

Conventions: the diagonalizer T stores eigenvectors in its ROWS, so
``T @ H @ T.T`` is diagonal and ``exp(-iHt) = T.T @ diag(exp(-i L t)) @ T``.
A plane rotation by angle th in plane (p, q) carries the block
``[[cos th, -sin th], [sin th, cos th]]`` in rows/columns (p, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .models import StateVector, to_level_order, to_row_order

# Plane order of the six-angle factorization, zero-indexed.
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_SYMMETRY_TOL = 1e-12
_ORTHO_TOL = 1e-10
_MAX_SWEEPS = 50


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the row-eigenvector diagonalizer."""

    eigenvalues: np.ndarray
    diagonalizer: np.ndarray


def jacobi_eigh(h: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric 4x4 matrix by cyclic Jacobi sweeps.

    The sweeps run on the matrix scaled by an exact power of two, so that its
    largest entry lies in [1/2, 1), and the eigenvalues are scaled back; the
    result does not depend on the scale, however small or large. Sweeps
    visit the planes in the fixed order of ``PLANES`` until the off-diagonal
    Frobenius norm falls below 1e-14 relative to the matrix scale;
    convergence is quadratic and a handful of sweeps suffices. Rows of the
    returned diagonalizer are sign-fixed (largest-magnitude component
    positive) and sorted by eigenvalue, so the output is deterministic.
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
    if float(np.abs(h - h.T).max()) > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")

    a = (h + h.T) / 2.0
    exponent = math.frexp(float(np.abs(a).max()))[1]
    a = np.ldexp(a, -exponent)
    v = np.eye(4)
    tol = 1e-14 * max(1.0, float(np.linalg.norm(a)))
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(float(np.sum(np.square(a - np.diag(np.diag(a))))))
        if off < tol:
            break
        for p, q in PLANES:
            apq = a[p, q]
            if abs(apq) < tol / 10.0:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau != 0.0 else 1.0
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            j = np.eye(4)
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            a = j.T @ a @ j
            v = v @ j
    else:
        raise NumericsError("Jacobi sweeps did not converge")

    order = np.argsort(np.diag(a), kind="stable")
    eigenvalues = np.ldexp(np.diag(a)[order], exponent)
    diag = v.T[order].copy()
    for row in diag:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    eigenvalues.setflags(write=False)
    diag.setflags(write=False)
    return EigenSystem(eigenvalues=eigenvalues, diagonalizer=diag)


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


def propagate(es: EigenSystem, c0: StateVector, t: float) -> StateVector:
    """Evolve ``c0`` for time ``t`` under the matrix ``es`` diagonalizes."""
    norm_dev = abs(float(np.sum(c0.populations())) - 1.0)
    if norm_dev > 1e-12:
        raise ValueError(f"initial state norm deviates by {norm_dev:.2e}")
    t_mat = es.diagonalizer
    v_rows = to_row_order(c0.amplitudes)
    w = t_mat @ v_rows
    w = np.exp(-1j * es.eigenvalues * t) * w
    out_rows = t_mat.T @ w
    return StateVector(to_level_order(out_rows))
