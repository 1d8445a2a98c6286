"""Rotating-frame reduction of the driven Hamiltonians.

For every configuration the three field frequencies admit a diagonal frame
generator K with

    K_a - K_b = -w_ab   for each allowed transition (a, b),
    sum_i K_i = 0.

The allowed transitions form a spanning tree on the four levels, so K is
found by walking the tree: K_1 = 0, each transition reached from a known
level fixes the other end by its equation, and the mean is subtracted at
the end. A transition set with a cycle or an unreachable level has no such
walk and is rejected. In the frame rotated by ``exp(i K t)`` the
transformed matrix

    H~ = K + exp(-i K t) H(t) exp(i K t)

is time independent, real, and symmetric: the oscillating phases cancel
exactly and each transition keeps its bare coupling. Its diagonal holds the
per-level detunings E_i + K_i, whose pairwise differences along allowed
transitions are the field detunings D_ab = (E_a - E_b) - w_ab. Driving every
transition at resonance (w_ab = E_a - E_b) zeroes the whole diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .models import (
    LEVELS,
    DriveParams,
    ModelConfig,
    Transition,
    hamiltonian_t,
    row_of,
    to_row_order,
)

RESONANCE_TOL = 1e-12


@dataclass(frozen=True)
class RotatingFrame:
    """Frame data for one (model, drive) pair.

    ``K`` and ``diag_detunings`` are level-ordered 4-vectors; ``h_tilde`` is
    the 4x4 real symmetric frame matrix in row order (top level first).
    ``detunings`` maps each allowed transition to D_ab.
    """

    model: ModelConfig
    K: np.ndarray
    h_tilde: np.ndarray
    detunings: dict[Transition, float]
    diag_detunings: np.ndarray

    def max_detuning(self) -> float:
        return max(abs(v) for v in self.detunings.values())

    def is_resonant(self, tol: float = RESONANCE_TOL) -> bool:
        return self.max_detuning() < tol


def frame_generator(model: ModelConfig, drive: DriveParams) -> np.ndarray:
    """The level-ordered frame generator (K1, K2, K3, K4), by a tree walk.

    Raises ConfigurationError when the transition set is not a spanning tree
    (a cycle leaves the generator underdetermined, an unreachable level
    leaves it unconstrained).
    """
    drive.validate_for(model)
    transitions = model.sorted_transitions()
    k = {1: 0.0}
    pending = list(transitions)
    while pending:
        for a, b in pending:
            if (a in k) == (b in k):
                continue
            if a in k:
                k[b] = k[a] + drive.field_freq[(a, b)]
            else:
                k[a] = k[b] - drive.field_freq[(a, b)]
            pending.remove((a, b))
            break
        else:
            break
    if pending or len(k) != 4:
        raise ConfigurationError(
            f"transition set {sorted(transitions)} is not a spanning tree;"
            " the frame generator is underdetermined"
        )
    mean = (k[1] + k[2] + k[3] + k[4]) / 4.0
    return np.array([k[level] - mean for level in LEVELS])


def rotate(model: ModelConfig, drive: DriveParams) -> RotatingFrame:
    """Build the time-independent frame matrix and its detunings."""
    k_levels = frame_generator(model, drive)
    energies = model.energies(drive.omega)
    diag_det = energies + k_levels

    rows = [[0.0] * 4 for _ in range(4)]
    for r, value in enumerate(to_row_order(diag_det).tolist()):
        rows[r][r] = value
    for (a, b) in model.sorted_transitions():
        rows[row_of(a)][row_of(b)] = rows[row_of(b)][row_of(a)] = drive.coupling[(a, b)]

    detunings = {
        (a, b): float((energies[a - 1] - energies[b - 1]) - drive.field_freq[(a, b)])
        for (a, b) in model.sorted_transitions()
    }
    return RotatingFrame(
        model=model, K=k_levels, h_tilde=np.array(rows, dtype=float),
        detunings=detunings, diag_detunings=diag_det,
    )


def transform_at(model: ModelConfig, drive: DriveParams, t, k_levels: np.ndarray) -> np.ndarray:
    """Evaluate K + exp(-iKt) H(t) exp(iKt), no cancellation assumed.

    Used to certify time independence of the constructed frame. An array of
    times gives one matrix per time, shape ``t.shape + (4, 4)``.
    """
    k_rows = to_row_order(np.asarray(k_levels, dtype=float))
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * k_rows * t[..., None])
    h_lab = hamiltonian_t(model, drive, t)
    return (np.diag(k_rows).astype(complex)
            + phase[..., :, None] * h_lab * phase.conj()[..., None, :])


def check_time_independence(
    model: ModelConfig,
    drive: DriveParams,
    sample_times: Iterable[float],
    k_levels: np.ndarray | None = None,
) -> float:
    """Max elementwise drift of the transformed matrix across sample times.

    With the solved generator the drift is rounding noise; passing a wrong
    ``k_levels`` leaves oscillating phases and a visible residual. All
    sample times are evaluated by one array call.
    """
    times = list(sample_times)
    if len(times) < 2:
        raise ConfigurationError("need at least two sample times")
    if k_levels is None:
        k_levels = frame_generator(model, drive)
    matrices = transform_at(model, drive, np.array(times, dtype=float), k_levels)
    return float(np.abs(matrices[1:] - matrices[0]).max())


def resonant_drive(
    model: ModelConfig,
    omega: tuple[float, float, float],
    coupling: dict[Transition, float],
) -> DriveParams:
    """Drive with every field frequency set to its level gap E_a - E_b."""
    energies = model.energies(omega)
    field_freq = {
        (a, b): float(energies[a - 1] - energies[b - 1]) for (a, b) in model.allowed
    }
    return DriveParams(omega=tuple(omega), field_freq=field_freq, coupling=dict(coupling))
