"""Time evolution: lab-frame RK4 integration and the exact spectral trace.

The two routes are deliberately independent. ``rk4_solve`` marches the
time-dependent lab-frame equation dC/dt = -i H(t) C with classic fixed-step
RK4 and never touches the rotating frame; the spectral route evaluates the
closed-form solution from the frame matrix eigensystem. Populations are
frame invariant (the frame transformation is a diagonal unitary), so the two
must agree wherever both apply, which is the backbone cross-check of the
whole package.

The spectral route has one evaluation path. ``solve_frame`` builds the
rotating frame of one (model, drive) pair and diagonalizes it once; the
resulting ``FrameSolution`` evaluates any number of initial states on a
grid from one matrix of phases. ``trace_via_spectral`` is the one-state
shorthand.

The RK4 march is linear, c_{n+1} = M_n c_n, so it runs as a prefix product
of the step maps M_n rather than one array call per step. Within each block
of steps the maps are split into about sqrt(m) groups of b = isqrt(m)
steps. b - 1 batched products form every group's running products at once,
a short loop carries the state from one group start to the next, and one
batched product gives every state. The work stays O(m) matrix products,
and the Python-level calls drop from m to about 2 sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericsError
from .frame import RESONANCE_TOL, RotatingFrame, rotate
from .models import (
    DriveParams,
    ModelConfig,
    PopulationTrace,
    StateVector,
    hamiltonian_t,
    to_level_order,
    to_row_order,
)
from .spectral import EigenSystem, jacobi_eigh

__all__ = [
    "FrameSolution",
    "rk4_solve",
    "schrodinger_rhs",
    "solve_frame",
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
    H(t) is sampled once, at the three stage times of every step.
    """
    stage_times = times + np.array([[0.0], [0.5 * h], [h]])
    k1, a_mid, a_end = -1j * hamiltonian_t(model, drive, stage_times)
    k2 = a_mid + (0.5 * h) * (a_mid @ k1)
    k3 = a_mid + (0.5 * h) * (a_mid @ k2)
    k4 = a_end + h * (a_end @ k3)
    return np.eye(4) + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _march(maps: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Row k is maps[k] @ ... @ maps[0] @ state, for each of the m maps.

    Two-level prefix product: group j holds steps j b .. j b + b - 1, with
    b = isqrt(m); identity maps pad the last group. prefix[i, j] is the
    product of the first i + 1 steps of group j, built for all groups per
    call; the state at each group start follows from the previous start and
    that group's full product.
    """
    m = len(maps)
    b = math.isqrt(m)
    groups = -(-m // b)
    if groups * b > m:
        maps = np.concatenate((maps, np.broadcast_to(np.eye(4), (groups * b - m, 4, 4))))
    steps = maps.reshape(groups, b, 4, 4).swapaxes(0, 1)
    prefix = np.empty((b, groups, 4, 4), dtype=complex)
    prefix[0] = steps[0]
    for i in range(1, b):
        np.matmul(steps[i], prefix[i - 1], out=prefix[i])
    starts = np.empty((groups, 4), dtype=complex)
    starts[0] = state
    for j in range(groups - 1):
        np.matmul(prefix[-1, j], starts[j], out=starts[j + 1])
    return np.einsum("bgij,gj->gbi", prefix, starts).reshape(groups * b, 4)[:m]


# Steps whose matrices are built at once; bounds memory on long grids.
_RK4_BLOCK = 4096
# Largest final norm drift a march may show; beyond it the step is too coarse.
_RK4_NORM_TOL = 1e-6


def rk4_solve(
    model: ModelConfig, drive: DriveParams, c0: StateVector, t_grid
) -> tuple[PopulationTrace, StateVector]:
    """Fixed-step RK4 march of the lab-frame equation over a uniform grid.

    Records populations at every grid point. The step matrices use only
    samples of the lab-frame H(t), never the rotating frame. Each block of
    up to 4096 steps is built from one batch of H(t) samples and marched as
    a two-level prefix product of its step maps (``_march``). Raises
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
            maps = _rk4_step_matrices(model, drive, times, h)
            states[start + 1 : stop + 1] = _march(maps, states[start])
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


@dataclass(frozen=True)
class FrameSolution:
    """The rotating frame of one (model, drive) pair and its eigensystem.

    With T the diagonalizer and L the eigenvalues of the frame matrix, the
    row-ordered frame amplitudes are c(t) = T.T diag(exp(-i L t)) T c(0);
    populations are frame invariant, so |c(t)|^2 are the lab populations.
    """

    frame: RotatingFrame
    eigensystem: EigenSystem

    def amplitudes(self, states: Sequence[StateVector], t_grid) -> list[np.ndarray]:
        """Level-ordered frame amplitudes of each state, one row per grid time.

        The grid is checked and the phases exp(-i L t) are computed once for
        all states. Raises NumericsError when max|L| max|t| overflows, since
        the phases would then not be finite. The eigenvalues ascend, and so
        does the grid of every caller, so their end points give both maxima
        without a pass over the grid.
        """
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.ndim != 1 or t_grid.size < 1:
            raise ConfigurationError("time grid must be a non-empty 1-d array")
        t_first, t_last = float(t_grid[0]), float(t_grid[-1])
        if not (math.isfinite(t_first) and math.isfinite(t_last)):
            raise ConfigurationError(
                f"time grid must be finite, got end points {t_first} and {t_last}"
            )
        t_abs = max(abs(t_first), abs(t_last))
        lam = self.eigensystem.eigenvalues
        lam_abs = max(-float(lam[0]), float(lam[-1]))
        # a finite bound on every |L t| keeps every phase finite
        if not math.isfinite(lam_abs * t_abs):
            raise NumericsError(
                f"spectral phases overflow: max|eigenvalue| = {lam_abs:.3e}"
                f" times max|t| = {t_abs:.3e} is not finite"
            )
        t_mat = self.eigensystem.diagonalizer
        phases = np.exp(-1j * np.outer(t_grid, self.eigensystem.eigenvalues))
        return [
            ((phases * (t_mat @ to_row_order(c0.amplitudes))) @ t_mat)[:, ::-1]
            for c0 in states
        ]


def solve_frame(
    model: ModelConfig, drive: DriveParams, allow_nonresonant: bool = False
) -> FrameSolution:
    """Rotate one (model, drive) pair into its frame and diagonalize it once.

    The frame matrix is real symmetric for any drive, but off resonance its
    diagonal is nonzero and the caller must opt in explicitly; the resonant
    case is the primary regime of the spectral route.
    """
    drive.validate_for(model)
    fr = rotate(model, drive)
    if not allow_nonresonant and not fr.is_resonant():
        raise ConfigurationError(
            f"drive is off resonance (max detuning {fr.max_detuning():.2e}"
            f" > {RESONANCE_TOL:.0e}); pass allow_nonresonant=True to proceed"
        )
    return FrameSolution(frame=fr, eigensystem=jacobi_eigh(fr.h_tilde))


def trace_via_spectral(
    model: ModelConfig,
    drive: DriveParams,
    c0: StateVector,
    t_grid,
    allow_nonresonant: bool = False,
) -> PopulationTrace:
    """Exact populations of one initial state on a strictly increasing grid.

    Shorthand for ``solve_frame`` followed by ``FrameSolution.amplitudes``;
    a caller with several initial states should solve once and evaluate them
    together.
    """
    (amps,) = solve_frame(model, drive, allow_nonresonant).amplitudes([c0], t_grid)
    return PopulationTrace(times=t_grid, populations=np.abs(amps) ** 2)
