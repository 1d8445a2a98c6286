"""Rotating-frame reduction of the driven Hamiltonians.

For every configuration the three field frequencies admit a diagonal frame
generator K with

    K_a - K_b = -w_ab   for each allowed transition (a, b),
    sum_i K_i = 0.

The allowed transitions join the levels into the model's path, so K is
found by walking the path outward from level 1 in both directions: K_1 = 0,
each step fixes the next level by the equation of the transition it
crosses, and the mean is subtracted at the end. In the frame rotated by
``exp(i K t)`` the transformed matrix

    H~ = K + exp(-i K t) H(t) exp(i K t)

is time independent, real, and symmetric: the oscillating phases cancel
exactly and each transition keeps its bare coupling. Its diagonal holds the
per-level detunings E_i + K_i, whose pairwise differences along allowed
transitions are the field detunings D_ab = (E_a - E_b) - w_ab. Driving every
transition at resonance (w_ab = E_a - E_b) zeroes the whole diagonal.

Each model holds its path walk and its transitions' matrix positions once
(``ModelConfig.path_walk``, ``transition_slots``). A call computes its
drive's part on Python floats, as a 4x4 frame is too small for array
operations to pay: K, the energies and both kinds of detuning, then each
of the frame's three arrays once.
``check_time_independence`` takes its times through ``models.check_times``
and checks the drive's keys once, in ``models.hamiltonian_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .models import (
    DriveParams,
    HamiltonianTable,
    ModelConfig,
    Transition,
    check_times,
    hamiltonian_table,
    to_row_order,
)

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class RotatingFrame:
    """Frame data for one (model, drive) pair.

    ``K`` and ``diag_detunings`` are level-ordered 4-vectors; ``h_tilde`` is
    the 4x4 real symmetric frame matrix in row order (top level first).
    ``detunings`` maps each allowed transition to D_ab, and ``scale`` is
    the largest |E_a - E_b| or |w_ab| over them.
    """

    model: ModelConfig
    K: np.ndarray
    h_tilde: np.ndarray
    detunings: dict[Transition, float]
    diag_detunings: np.ndarray
    scale: float

    def max_detuning(self) -> float:
        return max(abs(v) for v in self.detunings.values())

    def is_resonant(self) -> bool:
        """max|D_ab| <= RESONANCE_TOL * scale: the verdict holds under any
        power-of-two rescaling of the drive, an all-zero drive counts, and a
        level gap that overflows does not."""
        return self.max_detuning() <= RESONANCE_TOL * self.scale < math.inf


def frame_generator(model: ModelConfig, drive: DriveParams) -> np.ndarray:
    """The level-ordered frame generator (K1, K2, K3, K4), by the model's path walk."""
    drive.validate_for(model)
    return _path_generator(model, drive)


def _path_generator(model: ModelConfig, drive: DriveParams) -> np.ndarray:
    """``frame_generator`` of a drive whose keys are already checked."""
    freq = drive.field_freq
    k = [0.0] * 4  # by row
    for known, new, tr, below in model.path_walk:
        k[new] = k[known] + freq[tr] if below else k[known] - freq[tr]
    k4, k3, k2, k1 = k
    mean = (k1 + k2 + k3 + k4) / 4.0
    return np.array([k1 - mean, k2 - mean, k3 - mean, k4 - mean])


def rotate(model: ModelConfig, drive: DriveParams) -> RotatingFrame:
    """Build the time-independent frame matrix and its detunings."""
    k_levels = frame_generator(model, drive)
    k1, k2, k3, k4 = k_levels.tolist()
    energies = e1, e2, e3, e4 = model.energies(drive.omega)
    diag_det = d1, d2, d3, d4 = [e1 + k1, e2 + k2, e3 + k3, e4 + k4]

    # row order, flat: level 4 first
    h = [d4, 0.0, 0.0, 0.0, 0.0, d3, 0.0, 0.0, 0.0, 0.0, d2, 0.0, 0.0, 0.0, 0.0, d1]
    detunings = {}
    scale = 0.0
    for tr, upper, lower in model.transition_slots:
        h[upper] = h[lower] = drive.coupling[tr]
        gap, freq = energies[tr[0] - 1] - energies[tr[1] - 1], drive.field_freq[tr]
        detunings[tr] = float(gap - freq)
        scale = max(scale, abs(gap), abs(freq))
    h_tilde = np.array(h, dtype=float).reshape(4, 4)
    return RotatingFrame(model, k_levels, h_tilde, detunings, np.array(diag_det), float(scale))


def transform_at(model: ModelConfig, drive: DriveParams, t, k_levels: np.ndarray) -> np.ndarray:
    """Evaluate K + exp(-iKt) H(t) exp(iKt), no cancellation assumed.

    Used to certify time independence of the constructed frame. An array of
    times gives one matrix per time, shape ``t.shape + (4, 4)``.
    """
    return _transform(hamiltonian_table(model, drive), t, k_levels)


def _transform(table: HamiltonianTable, t, k_levels: np.ndarray) -> np.ndarray:
    """``transform_at`` on the generator table of a checked drive."""
    k_rows = to_row_order(np.asarray(k_levels, dtype=float))
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * k_rows * t[..., None])
    h_lab = table.matrices(t)
    return (np.diag(k_rows).astype(complex)
            + phase[..., :, None] * h_lab * phase.conj()[..., None, :])


def check_time_independence(
    model: ModelConfig, drive: DriveParams, sample_times, k_levels: np.ndarray | None = None
) -> float:
    """Max elementwise drift of the transformed matrix across sample times.

    With the solved generator the drift is rounding noise; passing a wrong
    ``k_levels`` leaves oscillating phases and a visible residual. All
    sample times, at least two, go into one array call, and the drive's
    keys are checked once, by the generator table.
    """
    times, _ = check_times(sample_times)
    if len(times) < 2:
        raise ConfigurationError("need at least two sample times")
    table = hamiltonian_table(model, drive)
    if k_levels is None:
        k_levels = _path_generator(model, drive)
    matrices = _transform(table, times, k_levels)
    return float(np.abs(matrices[1:] - matrices[0]).max())


def resonant_drive(
    model: ModelConfig,
    omega: tuple[float, float, float],
    coupling: dict[Transition, float],
) -> DriveParams:
    """Drive with every field frequency set to its level gap E_a - E_b."""
    # Python floats: a gap that overflows becomes inf without a RuntimeWarning.
    # It is reported under omega, the input; DriveParams names a non-finite w_i.
    energies = model.energies(omega)
    field_freq = {(a, b): energies[a - 1] - energies[b - 1] for (a, b) in model.allowed}
    overflow = [tr for tr, gap in field_freq.items() if not math.isfinite(gap)]
    if overflow and all(math.isfinite(w) for w in omega):
        raise ConfigurationError(
            f"omega {' '.join(map(str, omega))} overflows the level gap of {overflow[0]}"
        )
    return DriveParams(omega=tuple(omega), field_freq=field_freq, coupling=dict(coupling))
