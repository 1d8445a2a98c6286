"""The six four-level configurations and their driven Hamiltonians.

Levels are labeled 1..4 from the bottom. The matrix basis orders rows from
the top level down (row 0 is level 4, row 3 is level 1), so a transition
between levels a > b sits above the diagonal at (row_of(a), row_of(b)).
All vector-valued inputs and outputs use level order (index 0 is level 1);
only 4x4 matrices use row order.

Each configuration allows exactly three dipole transitions forming a
spanning tree on the four levels, and fixes the level energies as linear
combinations of three splitting parameters (w1, w2, w3) with zero sum.
A transition (a, b) is driven by a classical field of frequency w_ab and a
real non-negative coupling kappa_ab; within the rotating wave approximation
the matrix element is kappa_ab * exp(-i w_ab t).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import LADDER_OF_TRANSITION, ShiftOperators, TRANSITION_OF_LADDER
from .errors import ConfigurationError

LEVELS = (1, 2, 3, 4)

Transition = tuple[int, int]


def row_of(level: int) -> int:
    """Zero-indexed matrix row of a level (top level first)."""
    if level not in LEVELS:
        raise ConfigurationError(f"level {level} outside 1..4")
    return 4 - level


def to_row_order(level_vec: np.ndarray) -> np.ndarray:
    """Reverse a level-ordered 4-vector into matrix row order."""
    return np.asarray(level_vec)[::-1]


def to_level_order(row_vec: np.ndarray) -> np.ndarray:
    """Reverse a row-ordered 4-vector into level order."""
    return np.asarray(row_vec)[::-1]


class ModelId(str, enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ModelConfig:
    """One configuration: allowed transitions, energies, operator assignment.

    ``energy_coeffs[i]`` holds the coefficients of (w1, w2, w3) in the energy
    of level i+1. ``diagonal_ops`` names the three diagonal shift operators
    whose span contains the free Hamiltonian, in the order paired with
    (w1, w2, w3) by the operator form.
    """

    id: ModelId
    allowed: frozenset[Transition]
    energy_coeffs: tuple[tuple[float, float, float], ...]
    diagonal_ops: tuple[str, str, str]

    def energies(self, omega: tuple[float, float, float]) -> np.ndarray:
        """Level energies (E1, E2, E3, E4) for splittings ``omega``."""
        w = np.asarray(omega, dtype=float)
        if w.shape != (3,):
            raise ConfigurationError("omega must hold exactly three splittings")
        w1, w2, w3 = w.tolist()
        return np.array([c1 * w1 + c2 * w2 + c3 * w3 for c1, c2, c3 in self.energy_coeffs])

    def sorted_transitions(self) -> tuple[Transition, ...]:
        return tuple(sorted(self.allowed, reverse=True))


_CATALOG_DATA = [
    # id, allowed transitions, energy coefficient rows for levels 1..4,
    # diagonal operator triple paired with (w1, w2, w3)
    ("I", [(4, 1), (3, 2), (2, 1)],
     [(-1, -1, 0), (0, 1, -1), (0, 0, 1), (1, 0, 0)], ("W3", "Z3", "U3")),
    ("II", [(4, 3), (3, 1), (2, 1)],
     [(-1, 0, -1), (1, 0, 0), (0, -0.5, 1), (0, 0.5, 0)], ("Z3", "T3", "X3")),
    ("III", [(4, 3), (3, 2), (2, 1)],
     [(-1, 0, 0), (1, 0, -1), (0, -1, 1), (0, 1, 0)], ("Z3", "T3", "U3")),
    ("IV", [(4, 3), (4, 1), (2, 1)],
     [(-1, 0, -1), (1, 0, 0), (0, -0.5, 0), (0, 0.5, 1)], ("Z3", "T3", "W3")),
    ("V", [(4, 3), (4, 2), (2, 1)],
     [(-1, 0, 0), (1, 0, -1), (0, -1, 0), (0, 1, 1)], ("Z3", "T3", "V3")),
    ("VI", [(4, 3), (4, 1), (3, 2)],
     [(-1, 0, 0), (0, 0, -1), (0, -0.5, 1), (1, 0.5, 0)], ("W3", "T3", "U3")),
]

_CATALOG = tuple(
    ModelConfig(
        id=ModelId(mid),
        allowed=frozenset(allowed),
        energy_coeffs=tuple(tuple(float(x) for x in row) for row in coeffs),
        diagonal_ops=ops,
    )
    for mid, allowed, coeffs, ops in _CATALOG_DATA
)


def catalog() -> tuple[ModelConfig, ...]:
    """All six configurations, in catalog order I..VI."""
    return _CATALOG


def get_model(mid: ModelId | str) -> ModelConfig:
    mid = ModelId(mid)
    for m in _CATALOG:
        if m.id is mid:
            return m
    raise ConfigurationError(f"unknown model {mid!r}")


@dataclass(frozen=True)
class DriveParams:
    """Splittings plus per-transition field frequencies and couplings.

    ``field_freq`` and ``coupling`` must be keyed by exactly the transitions
    a model allows; couplings are real and non-negative (zero switches a
    transition off without changing the key set). Every value must be finite.
    """

    omega: tuple[float, float, float]
    field_freq: dict[Transition, float]
    coupling: dict[Transition, float]

    def __post_init__(self) -> None:
        for i, w in enumerate(self.omega, start=1):
            if not math.isfinite(w):
                raise ConfigurationError(f"splitting w{i} is not finite: {w}")
        for name, values in (("field_freq", self.field_freq), ("coupling", self.coupling)):
            for pair, v in values.items():
                if not math.isfinite(v):
                    raise ConfigurationError(f"{name} for {pair} is not finite: {v}")
        for pair, k in self.coupling.items():
            if k < 0:
                raise ConfigurationError(f"coupling for {pair} is negative: {k}")

    def validate_for(self, model: ModelConfig) -> None:
        for name, keys in (("field_freq", self.field_freq), ("coupling", self.coupling)):
            got = frozenset(keys)
            if got != model.allowed:
                extra = sorted(got - model.allowed)
                missing = sorted(model.allowed - got)
                raise ConfigurationError(
                    f"{name} keys do not match model {model.id} transitions"
                    f" (extra {extra}, missing {missing})"
                )


def hamiltonian_t(model: ModelConfig, drive: DriveParams, t) -> np.ndarray:
    """The lab-frame matrix at time ``t``: level energies on the diagonal,
    ``kappa_ab exp(-i w_ab t)`` above it for each allowed transition.

    An array of times gives one matrix per time, shape ``t.shape + (4, 4)``.
    """
    drive.validate_for(model)
    t = np.asarray(t, dtype=float)
    h = np.empty(t.shape + (4, 4), dtype=complex)
    h[...] = np.diag(to_row_order(model.energies(drive.omega)))
    for (a, b) in model.sorted_transitions():
        entry = drive.coupling[(a, b)] * np.exp(-1j * drive.field_freq[(a, b)] * t)
        h[..., row_of(a), row_of(b)] = entry
        h[..., row_of(b), row_of(a)] = np.conj(entry)
    return h


def hamiltonian_shift_form(
    model: ModelConfig, drive: DriveParams, t: float, ops: ShiftOperators
) -> np.ndarray:
    """The same matrix assembled from shift operators.

    The free part is decomposed over the model's three diagonal operators.
    The 4x3 system is consistent (both sides are traceless), so a
    well-conditioned 3x3 row subset determines the coefficients exactly.
    The driven part uses the ladder operator of each transition. Agreement
    with :func:`hamiltonian_t` is a correctness check on both the operator
    assignments and the ladder realizations.
    """
    drive.validate_for(model)
    energies_rows = to_row_order(model.energies(drive.omega))
    columns = np.stack(
        [np.diag(ops.diagonal[name]) for name in model.diagonal_ops], axis=1
    )
    for rows in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        sub = columns[list(rows)]
        if abs(np.linalg.det(sub)) > 0.5:
            coeffs = np.linalg.solve(sub, energies_rows[list(rows)])
            break
    else:
        raise ConfigurationError(
            f"diagonal operators {model.diagonal_ops} do not span the free part"
        )
    h = np.diag(columns @ coeffs).astype(complex)
    for (a, b) in model.sorted_transitions():
        ladder = LADDER_OF_TRANSITION[(a, b)]
        kappa = drive.coupling[(a, b)]
        wf = drive.field_freq[(a, b)]
        h += kappa * np.exp(-1j * wf * t) * ops.plus[ladder]
        h += kappa * np.exp(1j * wf * t) * ops.minus[ladder]
    return h


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitudes (C1, C2, C3, C4) in level order."""

    amplitudes: np.ndarray
    norm_tol: float = field(default=1e-12, compare=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(4).copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        deviation = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not deviation <= self.norm_tol:  # NaN amplitudes fail too
            raise ConfigurationError(
                f"state norm deviates from 1 by {deviation:.2e} (tol {self.norm_tol:.0e})"
            )

    @classmethod
    def basis(cls, level: int) -> "StateVector":
        if level not in LEVELS:
            raise ConfigurationError(f"level {level} outside 1..4")
        amps = np.zeros(4, dtype=complex)
        amps[level - 1] = 1.0
        return cls(amps)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class PopulationTrace:
    """Populations (P1..P4, level order) sampled on a strictly increasing grid."""

    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape != (times.size, 4):
            raise ConfigurationError(
                f"populations shape {pops.shape} does not match {times.size} times"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ConfigurationError("time grid must be strictly increasing")
        times.setflags(write=False)
        pops.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "populations", pops)

    def norm_errors(self) -> np.ndarray:
        """Per-row deviation of the population sum from 1."""
        return np.abs(1.0 - self.populations.sum(axis=1))

    def max_norm_error(self) -> float:
        return float(self.norm_errors().max())


__all__ = [
    "DriveParams",
    "LADDER_OF_TRANSITION",
    "LEVELS",
    "ModelConfig",
    "ModelId",
    "PopulationTrace",
    "StateVector",
    "TRANSITION_OF_LADDER",
    "Transition",
    "catalog",
    "get_model",
    "hamiltonian_shift_form",
    "hamiltonian_t",
    "row_of",
    "to_level_order",
    "to_row_order",
]
