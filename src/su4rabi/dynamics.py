"""Time evolution: lab-frame RK4 integration and the exact spectral trace.

The two routes are deliberately independent. ``rk4_solve`` marches the
time-dependent lab-frame equation dC/dt = -i H(t) C with classic fixed-step
RK4 and never touches the rotating frame; ``trace_via_spectral`` evaluates
the closed-form solution from the frame matrix eigensystem. Populations are
frame invariant (the frame transformation is a diagonal unitary), so the two
must agree wherever both apply, which is the backbone cross-check of the
whole package.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, NumericsError
from .frame import RESONANCE_TOL, rotate
from .models import (
    DriveParams,
    ModelConfig,
    PopulationTrace,
    StateVector,
    hamiltonian_t,
    to_level_order,
    to_row_order,
)
from .spectral import jacobi_eigh

__all__ = [
    "rk4_solve",
    "schrodinger_rhs",
    "trace_via_spectral",
]


def schrodinger_rhs(
    model: ModelConfig, drive: DriveParams, t: float, amplitudes: np.ndarray
) -> np.ndarray:
    """-i H(t) c for a level-ordered amplitude vector (any norm).

    Reference implementation used by tests; ``rk4_solve`` builds whole RK4
    step matrices from samples of H(t) instead of calling it per stage.
    """
    c_rows = to_row_order(np.asarray(amplitudes, dtype=complex))
    return to_level_order(-1j * (hamiltonian_t(model, drive, t) @ c_rows))


def _validate_grid(t_grid: np.ndarray) -> tuple[float, float, int]:
    """Return (t0, h, n_steps) for a uniform strictly increasing grid."""
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ConfigurationError("time grid must be a non-empty 1-d array")
    if t_grid.size == 1:
        return float(t_grid[0]), 0.0, 0
    spacings = np.diff(t_grid)
    if np.any(spacings <= 0):
        raise ConfigurationError("time grid must be strictly increasing")
    h = float(spacings[0])
    if float(np.abs(spacings - h).max()) > 1e-9 * max(1.0, abs(h)):
        raise ConfigurationError("time grid must be uniform for fixed-step RK4")
    return float(t_grid[0]), h, t_grid.size - 1


def _rk4_step_matrices(
    model: ModelConfig, drive: DriveParams, times: np.ndarray, h: float
) -> np.ndarray:
    """Classic RK4 step maps M_n, c_{n+1} = M_n c_n, for steps starting at ``times``.

    For the linear equation dC/dt = A(t) C in row order, A = -i H(t), the
    four stages are matrices:
    K1 = A(t), K2 = A(t + h/2)(I + h/2 K1), K3 = A(t + h/2)(I + h/2 K2),
    K4 = A(t + h)(I + h K3), and M = I + h/6 (K1 + 2 K2 + 2 K3 + K4).
    """
    k1, a_mid, a_end = (
        -1j * hamiltonian_t(model, drive, s) for s in (times, times + 0.5 * h, times + h)
    )
    k2 = a_mid + (0.5 * h) * (a_mid @ k1)
    k3 = a_mid + (0.5 * h) * (a_mid @ k2)
    k4 = a_end + h * (a_end @ k3)
    return np.eye(4) + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# Steps whose matrices are built at once; bounds memory on long grids.
_RK4_BLOCK = 4096
# Largest final norm drift a march may show; beyond it the step is too coarse.
_RK4_NORM_TOL = 1e-6


def rk4_solve(
    model: ModelConfig, drive: DriveParams, c0: StateVector, t_grid
) -> tuple[PopulationTrace, StateVector]:
    """Fixed-step RK4 march of the lab-frame equation over a uniform grid.

    Records populations at every grid point. The step matrices use only
    samples of the lab-frame H(t), never the rotating frame. Raises
    NumericsError when the state leaves the finite range or its final norm
    drifts from 1 by more than 1e-6 (the step size was far too coarse for
    the couplings involved).
    """
    drive.validate_for(model)
    t_grid = np.asarray(t_grid, dtype=float)
    t0, h, n_steps = _validate_grid(t_grid)

    states = np.empty((n_steps + 1, 4), dtype=complex)
    states[0] = to_row_order(c0.amplitudes)
    # a divergent march must overflow to inf/nan silently; the isfinite
    # check below turns it into a NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _RK4_BLOCK):
            stop = min(start + _RK4_BLOCK, n_steps)
            times = t0 + np.arange(start, stop) * h
            for n, step in enumerate(_rk4_step_matrices(model, drive, times, h), start):
                states[n + 1] = step @ states[n]
        pops_rows = np.abs(states) ** 2

    if not np.all(np.isfinite(pops_rows)):
        raise NumericsError(
            "RK4 state became non-finite; reduce the step size or the couplings"
        )
    drift = abs(float(pops_rows[-1].sum()) - 1.0)
    if drift > _RK4_NORM_TOL:
        raise NumericsError(
            f"RK4 state norm drifted from 1 by {drift:.2e} (tol {_RK4_NORM_TOL:.0e})"
            f" at step size h = {h:.6g}; reduce the step size or the couplings"
        )
    trace = PopulationTrace(times=t_grid, populations=pops_rows[:, ::-1].copy())
    final = StateVector(to_level_order(states[-1]), norm_tol=_RK4_NORM_TOL)
    return trace, final


def trace_via_spectral(
    model: ModelConfig,
    drive: DriveParams,
    c0: StateVector,
    t_grid,
    allow_nonresonant: bool = False,
) -> PopulationTrace:
    """Exact populations on an arbitrary strictly increasing grid.

    Diagonalizes the rotating-frame matrix once and evaluates the propagator
    in closed form per grid point. The frame matrix is real symmetric for any
    drive, but off resonance its diagonal is nonzero and the caller must opt
    in explicitly; the resonant case is the primary regime for this route.
    """
    drive.validate_for(model)
    fr = rotate(model, drive)
    if not allow_nonresonant and not fr.is_resonant():
        raise ConfigurationError(
            f"drive is off resonance (max detuning {fr.max_detuning():.2e}"
            f" > {RESONANCE_TOL:.0e}); pass allow_nonresonant=True to proceed"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ConfigurationError("time grid must be a non-empty 1-d array")

    es = jacobi_eigh(fr.h_tilde)
    t_mat = es.diagonalizer
    weights = t_mat @ to_row_order(c0.amplitudes)
    phases = np.exp(-1j * np.outer(t_grid, es.eigenvalues))
    c_rows = (phases * weights) @ t_mat
    populations = np.abs(c_rows[:, ::-1]) ** 2
    return PopulationTrace(times=t_grid, populations=populations)
