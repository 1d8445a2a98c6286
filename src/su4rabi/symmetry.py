"""Inversion symmetry between configurations and the spin-3/2 reduction.

Flipping the level ladder upside down (i -> 5 - i, so a transition (a, b)
maps to (5 - b, 5 - a)) sends each configuration's allowed set onto another
configuration's: the catalog closes under inversion with partners
I <-> VI, II <-> V, and III, IV fixed. Carrying the couplings along
(kappa'_{(5-b)(5-a)} = kappa_ab) makes the two frame matrices conjugate by
the anti-diagonal permutation J, so populations satisfy

    P'_{5-i}(t; start 5-j) = P_i(t; start j).

A separate reduction: the ladder configuration III driven at resonance with
couplings (sqrt(3) k, 2 k, sqrt(3) k) on (4,3), (3,2), (2,1) is exactly
2k Jx for spin 3/2. Eigenvalues are (-3k, -k, k, 3k) and from the top level
the populations follow the binomial closed form
(cos^6 kt, 3 cos^4 kt sin^2 kt, 3 cos^2 kt sin^4 kt, sin^6 kt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FrameSolution, solve_frame
from .errors import ConfigurationError
from .frame import resonant_drive, rotate
from .models import (
    LEVELS,
    DriveParams,
    ModelConfig,
    ModelId,
    PopulationTrace,
    StateVector,
    Transition,
    catalog,
    get_model,
)

# Cross-check table only; partners are computed from the catalog.
EXPECTED_PARTNERS = {
    ModelId.I: ModelId.VI,
    ModelId.II: ModelId.V,
    ModelId.III: ModelId.III,
    ModelId.IV: ModelId.IV,
    ModelId.V: ModelId.II,
    ModelId.VI: ModelId.I,
}


def map_level(level: int) -> int:
    """The ladder flip i -> 5 - i."""
    if level not in (1, 2, 3, 4):
        raise ConfigurationError(f"level {level} outside 1..4")
    return 5 - level


def map_transition(tr: Transition) -> Transition:
    """Image of a transition under the ladder flip, kept upper-first."""
    a, b = tr
    return (5 - b, 5 - a)


@dataclass(frozen=True)
class InversionMap:
    source: ModelId
    target: ModelId


def inversion_partner(mid: ModelId | str) -> InversionMap:
    """Find the configuration whose allowed set is the flipped one."""
    source = get_model(mid)
    image = frozenset(map_transition(tr) for tr in source.allowed)
    for candidate in catalog():
        if candidate.allowed == image:
            return InversionMap(source=source.id, target=candidate.id)
    raise ConfigurationError(
        f"no catalog entry matches the inverted transitions of model {source.id}"
    )


def invert_drive(
    model: ModelConfig, drive: DriveParams
) -> tuple[ModelConfig, DriveParams]:
    """Carry a drive across the inversion.

    Couplings move with their transitions. Field frequencies are chosen so
    the partner's transition detunings are the negatives of the source's,
    which flips the per-level detunings upside down and makes the two frame
    matrices exactly anti-diagonally conjugate; at resonance both sides are
    simply resonant.
    """
    drive.validate_for(model)
    partner = get_model(inversion_partner(model.id).target)
    src_energies = model.energies(drive.omega)
    dst_energies = partner.energies(drive.omega)
    field_freq: dict[Transition, float] = {}
    coupling: dict[Transition, float] = {}
    for (a, b) in model.allowed:
        detuning = (src_energies[a - 1] - src_energies[b - 1]) - drive.field_freq[(a, b)]
        ap, bp = map_transition((a, b))
        coupling[(ap, bp)] = drive.coupling[(a, b)]
        field_freq[(ap, bp)] = float(
            (dst_energies[ap - 1] - dst_energies[bp - 1]) + detuning
        )
    return partner, DriveParams(
        omega=drive.omega, field_freq=field_freq, coupling=coupling
    )


def check_inversion(
    mid: ModelId | str,
    drive: DriveParams,
    t_grid,
    allow_nonresonant: bool = False,
) -> float:
    """Max population deviation |P_i(t) - P'_{5-i}(t)| across the grid and
    over all four start levels.

    The source starts in each level j in turn, the partner in its mirror
    level 5 - j. Each side is solved once, from its own frame matrix, so the
    check stays independent of the source's spectrum. Off-resonant drives
    are rejected unless explicitly allowed (the mapping itself stays exact
    either way).
    """
    model = get_model(mid)
    partner, partner_drive = invert_drive(model, drive)
    src = solve_frame(model, drive, allow_nonresonant).amplitudes(
        [StateVector.basis(level) for level in LEVELS], t_grid
    )
    dst = solve_frame(partner, partner_drive, allow_nonresonant).amplitudes(
        [StateVector.basis(map_level(level)) for level in LEVELS], t_grid
    )
    # level i of the source lines up with level 5-i, i.e. reversed columns
    return max(
        float(np.abs(np.abs(a) ** 2 - (np.abs(b) ** 2)[:, ::-1]).max())
        for a, b in zip(src, dst)
    )


def spin32_couplings(kappa: float) -> dict[Transition, float]:
    """Equidistant-ladder couplings that realize 2*kappa*Jx on model III."""
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    return {(4, 3): math.sqrt(3.0) * kappa, (3, 2): 2.0 * kappa, (2, 1): math.sqrt(3.0) * kappa}


def spin32_closed_form(kappa: float, times: np.ndarray) -> np.ndarray:
    """Populations (P1..P4, level order) from the top level, in closed form."""
    c = np.cos(kappa * np.asarray(times, dtype=float))
    s = np.sin(kappa * np.asarray(times, dtype=float))
    return np.stack([s**6, 3 * c**2 * s**4, 3 * c**4 * s**2, c**6], axis=1)


def spin32_reduction(
    kappa: float,
    t_grid,
    omega: tuple[float, float, float] = (1.0, 2.0, 3.0),
) -> tuple[PopulationTrace, float, FrameSolution]:
    """Run the reduction from the top level.

    Returns the trace, its max deviation from the closed form, and the
    solved frame it was evaluated from (its eigenvalues are the ladder).
    """
    model = get_model(ModelId.III)
    drive = resonant_drive(model, omega, spin32_couplings(kappa))
    solution = solve_frame(model, drive)
    (amps,) = solution.amplitudes([StateVector.basis(4)], t_grid)
    trace = PopulationTrace(times=t_grid, populations=np.abs(amps) ** 2)
    deviation = float(
        np.abs(trace.populations - spin32_closed_form(kappa, trace.times)).max()
    )
    return trace, deviation, solution


def spin32_frame_matrix(kappa: float, omega=(1.0, 2.0, 3.0)) -> np.ndarray:
    """The resonant frame matrix of the reduction (tridiagonal, 2*kappa*Jx)."""
    model = get_model(ModelId.III)
    drive = resonant_drive(model, omega, spin32_couplings(kappa))
    return rotate(model, drive).h_tilde
