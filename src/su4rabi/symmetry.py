"""Symmetries between configurations and the spin-3/2 reduction.

Each configuration's frame matrix, read in the order of its level path, is
the ladder of its path-ordered couplings and level detunings. So a level
map sigma that sends one configuration's path onto another's, read either
way, carries a drive across exactly (``relabel_drive``): the two frame
matrices are conjugate by the permutation of sigma, and

    P'_{sigma(i)}(t; start sigma(j)) = P_i(t; start j).

At resonance, then, the six configurations share one family of Rabi traces
up to relabelling. The inversion is the ladder flip sigma(i) = 5 - i, the
map onto the path ``tuple(5 - i for i in model.path)``; the catalog closes
under it with partners I <-> VI, II <-> V, and III, IV fixed.

A separate reduction: the ladder configuration III driven at resonance with
couplings (sqrt(3) k, 2 k, sqrt(3) k) on (4,3), (3,2), (2,1) is exactly
2k Jx for spin 3/2. Eigenvalues are (-3k, -k, k, 3k) and from the top level
the populations follow the binomial closed form
(cos^6 kt, 3 cos^4 kt sin^2 kt, 3 cos^2 kt sin^4 kt, sin^6 kt).
"""

from __future__ import annotations

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

# every configuration under its path, read either way
_BY_PATH = {p: m for m in catalog() for p in (m.path, m.path[::-1])}


def inversion_partner(mid: ModelId | str) -> ModelId:
    """The configuration whose path is the flipped one, read either way."""
    return _BY_PATH[tuple(5 - i for i in get_model(mid).path)].id


def relabel_drive(
    model: ModelConfig, drive: DriveParams, path
) -> tuple[ModelConfig, DriveParams, tuple[int, ...]]:
    """Carry a drive along the level map that sends ``model.path[k]`` to
    ``path[k]``.

    ``path`` must be a catalog path, read either way; the configuration
    that has it is the target. Couplings move with their transitions; a
    transition detuning keeps its sign where the map keeps the transition's
    orientation and flips it where the map reverses it, and the target's
    field is its level gap less the new detuning. Returns the target, its
    drive and the level map as ``levels`` for
    ``FrameSolution.max_population_gap`` (``levels[i - 1]`` is the image of
    level i).
    """
    drive.validate_for(model)
    path = tuple(path)
    target = _BY_PATH.get(path)
    if target is None:
        raise ConfigurationError(f"path {path} is not a catalog path, read either way")
    image = dict(zip(model.path, path))
    src_energies = model.energies(drive.omega)
    dst_energies = target.energies(drive.omega)
    field_freq: dict[Transition, float] = {}
    coupling: dict[Transition, float] = {}
    for (a, b) in model.allowed:
        detuning = (src_energies[a - 1] - src_energies[b - 1]) - drive.field_freq[(a, b)]
        ap, bp = image[a], image[b]
        if ap < bp:
            ap, bp, detuning = bp, ap, -detuning
        coupling[(ap, bp)] = drive.coupling[(a, b)]
        field_freq[(ap, bp)] = float((dst_energies[ap - 1] - dst_energies[bp - 1]) - detuning)
    relabelled = DriveParams(omega=drive.omega, field_freq=field_freq, coupling=coupling)
    return target, relabelled, tuple(image[i] for i in LEVELS)


def check_inversion(
    mid: ModelId | str,
    drive: DriveParams,
    t_grid,
    allow_nonresonant: bool = False,
) -> float:
    """Max population deviation |P_i(t; start j) - P'_{5-i}(t; start 5-j)|
    across the grid, over every level i and start level j.

    The drive is relabelled along the flipped path, and each side is solved
    once, from its own frame matrix, so the check stays independent of the
    source's spectrum; ``FrameSolution.max_population_gap`` compares the
    source's ten reciprocal level pairs with the partner's under the level
    map. Off-resonant drives are rejected unless explicitly allowed (the
    mapping itself stays exact either way).
    """
    model = get_model(mid)
    flipped = tuple(5 - i for i in model.path)
    partner, partner_drive, levels = relabel_drive(model, drive, flipped)
    source = solve_frame(model, drive, allow_nonresonant)
    mirror = solve_frame(partner, partner_drive, allow_nonresonant)
    return source.max_population_gap(mirror, levels, t_grid)


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
