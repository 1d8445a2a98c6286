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

import functools
import math

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


def map_level(level: int) -> int:
    """The ladder flip i -> 5 - i."""
    if level not in (1, 2, 3, 4):
        raise ConfigurationError(f"level {level} outside 1..4")
    return 5 - level


# level i of a configuration lines up with level 5 - i of its partner
_FLIPPED_LEVELS = tuple(map_level(i) for i in LEVELS)


def map_transition(tr: Transition) -> Transition:
    """Image of a transition under the ladder flip, kept upper-first."""
    a, b = tr
    return (5 - b, 5 - a)


def inversion_partner(mid: ModelId | str) -> ModelId:
    """The configuration whose allowed set is the flipped one."""
    return _partner_of(get_model(mid).id)


@functools.cache
def _partner_of(mid: ModelId) -> ModelId:
    """``inversion_partner``'s catalog search, run once per configuration:
    the catalog is fixed, and each ``symmetry`` command needs the partner
    both for its drive and for its report."""
    source = get_model(mid)
    image = frozenset(map_transition(tr) for tr in source.allowed)
    for candidate in catalog():
        if candidate.allowed == image:
            return candidate.id
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
    partner = get_model(inversion_partner(model.id))
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
    """Max population deviation |P_i(t; start j) - P'_{5-i}(t; start 5-j)|
    across the grid, over every level i and start level j.

    Each side is solved once, from its own frame matrix, so the check stays
    independent of the source's spectrum; ``FrameSolution.max_population_gap``
    compares the source's ten reciprocal level pairs with the partner's
    under the ladder flip. Off-resonant drives are rejected unless
    explicitly allowed (the mapping itself stays exact either way).
    """
    model = get_model(mid)
    partner, partner_drive = invert_drive(model, drive)
    source = solve_frame(model, drive, allow_nonresonant)
    mirror = solve_frame(partner, partner_drive, allow_nonresonant)
    return source.max_population_gap(mirror, _FLIPPED_LEVELS, t_grid)


def spin32_couplings(kappa: float) -> dict[Transition, float]:
    """Equidistant-ladder couplings that realize 2*kappa*Jx on model III."""
    if kappa <= 0:
        raise ConfigurationError("kappa must be positive")
    if not math.isfinite(2.0 * kappa):  # the largest coupling; nan too
        raise ConfigurationError(
            f"kappa = {kappa} gives a non-finite coupling 2 kappa = {2.0 * kappa}"
        )
    return {(4, 3): math.sqrt(3.0) * kappa, (3, 2): 2.0 * kappa, (2, 1): math.sqrt(3.0) * kappa}


def spin32_closed_form(kappa: float, times: np.ndarray) -> np.ndarray:
    """Populations (P1..P4, level order) from the top level, in closed form."""
    theta = kappa * np.asarray(times, dtype=float)
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    # products of the squares; s**6 and c**4 would go through an element-wise pow
    return np.stack([s2 * s2 * s2, 3 * c2 * s2 * s2, 3 * c2 * c2 * s2, c2 * c2 * c2], axis=1)


def spin32_reduction(
    kappa: float, t_grid
) -> tuple[PopulationTrace, float, FrameSolution]:
    """Run the reduction from the top level.

    Returns the trace, its max deviation from the closed form, and the
    solved frame it was evaluated from (its eigenvalues are the ladder).
    """
    model = get_model(ModelId.III)
    # at resonance the frame matrix is the couplings alone, for any splittings
    drive = resonant_drive(model, (1.0, 2.0, 3.0), spin32_couplings(kappa))
    solution = solve_frame(model, drive)
    (pops,) = solution.populations([StateVector.basis(4)], t_grid)
    trace = PopulationTrace(times=t_grid, populations=pops)
    deviation = float(
        np.abs(trace.populations - spin32_closed_form(kappa, trace.times)).max()
    )
    return trace, deviation, solution


def spin32_frame_matrix(kappa: float) -> np.ndarray:
    """The resonant frame matrix of the reduction (tridiagonal, 2*kappa*Jx)."""
    model = get_model(ModelId.III)
    drive = resonant_drive(model, (1.0, 2.0, 3.0), spin32_couplings(kappa))
    return rotate(model, drive).h_tilde
