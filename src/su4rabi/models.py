"""The six four-level configurations and their driven Hamiltonians.

Levels are labeled 1..4 from the bottom. The matrix basis orders rows from
the top level down (row 0 is level 4, row 3 is level 1), so a transition
between levels a > b sits above the diagonal at (row_of(a), row_of(b)).
All vector-valued inputs and outputs use level order (index 0 is level 1);
only 4x4 matrices use row order.

Each configuration allows exactly three dipole transitions, and they join
the four levels into one path: I is 3-2-1-4, II 2-1-3-4, III 1-2-3-4,
IV 2-1-4-3, V 1-2-4-3 and VI 1-4-3-2. A configuration stores its path, and
its allowed transitions are the path's three neighbouring level pairs. It
also fixes the level energies as linear combinations of three splitting
parameters (w1, w2, w3) with zero sum. A transition (a, b) is driven by a
classical field of frequency w_ab and a real non-negative coupling
kappa_ab; within the rotating wave approximation the matrix element is
kappa_ab * exp(-i w_ab t).

Each input rule has one owner: ``row_of`` for a level (an integer 1..4),
``check_times`` for every set of times (a non-empty 1-d finite real array)
and ``check_increasing`` for the grid of a trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import LADDER_OF_TRANSITION, ShiftOperators, TRANSITION_OF_LADDER
from .errors import ConfigurationError

LEVELS = (1, 2, 3, 4)

Transition = tuple[int, int]


def row_of(level: int) -> int:
    """Zero-indexed matrix row of a level (top level first), or a ConfigurationError."""
    # 2.0 and True, an int equal to 1, would pass the test below
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)):
        raise ConfigurationError(f"level {level!r} is not an integer 1..4")
    if level not in LEVELS:
        raise ConfigurationError(f"level {level} outside 1..4")
    return 4 - level


def check_times(times) -> tuple[np.ndarray, float]:
    """The times as a float array and their max|t|, or a ConfigurationError
    that names the first non-finite time."""
    try:
        times = np.asarray(times)
        if times.dtype.kind not in "biufO":  # strings would parse, complex lose its imaginary part
            raise TypeError(f"dtype {times.dtype}")
        times = times.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"time grid must hold real numbers ({exc})") from None
    if times.ndim != 1 or times.size < 1:
        raise ConfigurationError("time grid must be a non-empty 1-d array")
    # two reductions, where max|t| would need a temporary of the grid's length
    lo, hi = float(times.min()), float(times.max())  # nan if any time is nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigurationError(f"sample time {times[~np.isfinite(times)][0]} is not finite")
    return times, max(abs(lo), abs(hi))


# Times ``check_increasing`` compares at a time.
_CHUNK = 65536


def check_increasing(times: np.ndarray) -> None:
    """ConfigurationError unless times that ``check_times`` passed strictly
    increase; a chunk at a time, so a long grid needs no temporary of its length."""
    for start in range(0, times.size - 1, _CHUNK):
        chunk = times[start : start + _CHUNK + 1]
        if not (chunk[1:] > chunk[:-1]).all():
            raise ConfigurationError("time grid must be strictly increasing")


def to_row_order(level_vec: np.ndarray) -> np.ndarray:
    """Reverse a level-ordered 4-vector into matrix row order, or a
    row-ordered one into level order: the reversal is its own inverse."""
    return np.asarray(level_vec)[::-1]


to_level_order = to_row_order


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
    """One configuration: level path, energies, operator assignment.

    ``path`` visits each level once; its neighbouring pairs are the allowed
    transitions. ``energy_coeffs[i]`` holds the coefficients of (w1, w2, w3)
    in the energy of level i+1.
    """

    id: ModelId
    path: tuple[int, int, int, int]
    energy_coeffs: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.path)) != LEVELS:
            raise ConfigurationError(
                f"path {self.path} must visit each of the levels 1..4 exactly once"
            )

    def energies(self, omega: tuple[float, float, float]) -> list[float]:
        """Level energies [E1, E2, E3, E4], Python floats, for splittings ``omega``."""
        try:
            w1, w2, w3 = map(float, omega)
        except (TypeError, ValueError):
            raise ConfigurationError("omega must hold exactly three splittings") from None
        return [c1 * w1 + c2 * w2 + c3 * w3 for c1, c2, c3 in self.energy_coeffs]

    def sorted_transitions(self) -> tuple[Transition, ...]:
        return self._sorted_transitions

    @cached_property
    def _sorted_transitions(self) -> tuple[Transition, ...]:
        pairs = zip(self.path, self.path[1:])
        return tuple(sorted(((max(p), min(p)) for p in pairs), reverse=True))

    @cached_property
    def allowed(self) -> frozenset[Transition]:
        """The neighbouring level pairs of the path, upper level first."""
        return frozenset(self._sorted_transitions)

    @cached_property
    def diagonal_ops(self) -> tuple[str, ...]:
        """Diagonal partners (T3..Z3) of the path's transitions; they span the free Hamiltonian."""
        return tuple(LADDER_OF_TRANSITION[tr] + "3" for tr in self._sorted_transitions)

    @cached_property
    def transition_slots(self) -> tuple[tuple[Transition, int, int], ...]:
        """Each sorted transition (a, b) with its flat positions in a row-ordered
        4x4 matrix: 4 row_of(a) + row_of(b) above the diagonal, its mirror below."""
        rows = [(tr, row_of(tr[0]), row_of(tr[1])) for tr in self._sorted_transitions]
        return tuple((tr, 4 * ra + rb, 4 * rb + ra) for tr, ra, rb in rows)

    @cached_property
    def path_walk(self) -> tuple[tuple[int, int, Transition, bool], ...]:
        """The path's steps outward from level 1, both ways: the rows of the level
        reached and of the next one, their transition, and whether the next is lower."""
        i = self.path.index(1)
        steps = [s for side in (self.path[i::-1], self.path[i:]) for s in zip(side, side[1:])]
        return tuple((row_of(a), row_of(b), (max(a, b), min(a, b)), a > b) for a, b in steps)

    @cached_property
    def generator_blocks(self) -> np.ndarray:
        """The real 8x8 blocks [[Im G, Re G], [-Re G, Im G]] of -i G for G = E,
        X_1..X_3, Y_1..Y_3 (see HamiltonianTable), read-only (7, 64); E = 0."""
        n = len(self.transition_slots)
        g = np.zeros((1 + 2 * n, 16), dtype=complex)
        for k, (_, upper, lower) in enumerate(self.transition_slots, start=1):
            g[k, upper] = g[k, lower] = 1.0
            g[n + k, upper], g[n + k, lower] = -1j, 1j
        g = g.reshape(-1, 4, 4)
        blocks = np.block([[g.imag, g.real], [-g.real, g.imag]]).reshape(len(g), 64)
        blocks.setflags(write=False)
        return blocks


_CATALOG_DATA = [
    # id, level path, energy coefficient rows for levels 1..4
    ("I", (3, 2, 1, 4), [(-1, -1, 0), (0, 1, -1), (0, 0, 1), (1, 0, 0)]),
    ("II", (2, 1, 3, 4), [(-1, 0, -1), (1, 0, 0), (0, -0.5, 1), (0, 0.5, 0)]),
    ("III", (1, 2, 3, 4), [(-1, 0, 0), (1, 0, -1), (0, -1, 1), (0, 1, 0)]),
    ("IV", (2, 1, 4, 3), [(-1, 0, -1), (1, 0, 0), (0, -0.5, 0), (0, 0.5, 1)]),
    ("V", (1, 2, 4, 3), [(-1, 0, 0), (1, 0, -1), (0, -1, 0), (0, 1, 1)]),
    ("VI", (1, 4, 3, 2), [(-1, 0, 0), (0, 0, -1), (0, -0.5, 1), (1, 0.5, 0)]),
]

_CATALOG = tuple(
    ModelConfig(
        id=ModelId(mid),
        path=path,
        energy_coeffs=tuple(tuple(float(x) for x in row) for row in coeffs),
    )
    for mid, path, coeffs in _CATALOG_DATA
)
_BY_ID = {m.id: m for m in _CATALOG}


def catalog() -> tuple[ModelConfig, ...]:
    """All six configurations, in catalog order I..VI: the level paths, read
    either way, that hold at least two of the transitions 2-1, 3-2 and 4-3."""
    return _CATALOG


def get_model(mid: ModelId | str) -> ModelConfig:
    """The configuration of id ``mid``; an unknown id is a ConfigurationError."""
    try:
        return _BY_ID[ModelId(mid)]
    except ValueError:
        raise ConfigurationError(f"unknown model {mid!r}; choose from {', '.join(ModelId)}") from None


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
        for name, values in (("field_freq", self.field_freq), ("coupling", self.coupling)):
            if values.keys() != model.allowed:
                got = frozenset(values)
                extra = sorted(got - model.allowed)
                missing = sorted(model.allowed - got)
                raise ConfigurationError(
                    f"{name} keys do not match model {model.id} transitions"
                    f" (extra {extra}, missing {missing})"
                )


@dataclass(frozen=True)
class HamiltonianTable:
    """The lab-frame matrix of one (model, drive) pair as a table of generators.

    H(t) = E + sum_ab kappa_ab (cos(w_ab t) X_ab + sin(w_ab t) Y_ab), with
    X_ab = E_ab + E_ba and Y_ab = -i E_ab + i E_ba over the allowed
    transitions in row order. ``blocks`` holds -i E, -i X and -i Y as real
    8x8 blocks, and ``sample`` weighs them by (1, kappa cos(w t), kappa
    sin(w t)). Every matrix entry draws on exactly one generator, so the
    GEMM is exact: each sum holds one nonzero product.
    """

    blocks: np.ndarray
    kappa: np.ndarray
    freq: np.ndarray

    def sample(self, t, out: np.ndarray | None = None) -> np.ndarray:
        """-i H as real 8x8 blocks [[Im H, Re H], [-Re H, Im H]] at each time,
        shape ``t.shape + (8, 8)``: one (len, 7) @ (7, 64) GEMM, written into
        ``out`` (C-contiguous, of the result's size) when one is given."""
        t = np.asarray(t, dtype=float)
        n = len(self.kappa)
        coeffs = np.empty((1 + 2 * n, t.size))
        coeffs[0] = 1.0
        theta = np.multiply.outer(self.freq, t.reshape(-1))
        np.cos(theta, out=coeffs[1 : 1 + n])
        np.sin(theta, out=coeffs[1 + n :])
        weights = coeffs[1:].reshape(2, n, t.size)
        weights *= self.kappa[:, None]
        if out is not None:
            out = out.reshape(t.size, 64)
        return np.matmul(coeffs.T, self.blocks, out=out).reshape(t.shape + (8, 8))

    def matrices(self, t) -> np.ndarray:
        """H itself at each time, complex 4x4 in row order, shape
        ``t.shape + (4, 4)``: the top row of blocks of ``sample``."""
        samples = self.sample(t)
        h = np.empty(samples.shape[:-2] + (4, 4), dtype=complex)
        h.real = samples[..., :4, 4:]
        h.imag = samples[..., :4, :4]
        return h


def hamiltonian_table(model: ModelConfig, drive: DriveParams) -> HamiltonianTable:
    """The generator table of ``model`` under ``drive``: the model's static
    blocks with the drive's energies, E_i at flat positions 4, 13, 22, 31
    of the first block and -E_i at 32, 41, 50, 59 (row order)."""
    drive.validate_for(model)
    transitions = model.sorted_transitions()
    blocks = model.generator_blocks.copy()
    energy = blocks[0]
    energy[4:32:9] = model.energies(drive.omega)[::-1]
    np.negative(energy[4:32:9], out=energy[32::9])
    return HamiltonianTable(
        blocks=blocks,
        kappa=np.array([drive.coupling[tr] for tr in transitions], dtype=float),
        freq=np.array([drive.field_freq[tr] for tr in transitions]),
    )


def hamiltonian_t(model: ModelConfig, drive: DriveParams, t) -> np.ndarray:
    """The lab-frame matrix at time ``t``: level energies on the diagonal,
    ``kappa_ab exp(-i w_ab t)`` above it for each allowed transition.

    An array of times gives one matrix per time, shape ``t.shape + (4, 4)``,
    read from the top row of the table's samples.
    """
    return hamiltonian_table(model, drive).matrices(t)


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
    """Amplitudes (C1, C2, C3, C4) in level order, of norm 1 within 1e-12."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(4).copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        deviation = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if not deviation <= 1e-12:  # NaN amplitudes fail too
            raise ConfigurationError(f"state norm deviates from 1 by {deviation:.2e} (tol 1e-12)")

    @classmethod
    def basis(cls, level: int) -> "StateVector":
        amps = np.zeros(4, dtype=complex)
        to_row_order(amps)[row_of(level)] = 1.0
        return cls(amps)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class PopulationTrace:
    """Populations (P1..P4, level order) sampled on a strictly increasing grid."""

    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self) -> None:
        self._seal(check_times(self.times)[0], self.populations)

    @classmethod
    def _of_checked(cls, times: np.ndarray, populations) -> PopulationTrace:
        """The trace on times ``check_times`` returned; the other rules still run."""
        trace = object.__new__(cls)
        trace._seal(times, populations)
        return trace

    def _seal(self, times: np.ndarray, populations) -> None:
        times = times.view()  # the caller's array stays writable
        pops = np.asarray(populations, dtype=float)
        if pops.shape != (times.size, 4):
            raise ConfigurationError(
                f"populations shape {pops.shape} does not match {times.size} times"
            )
        check_increasing(times)
        times.setflags(write=False)
        pops.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "populations", pops)

    def max_norm_error(self) -> float:
        """Largest deviation of a row's population sum from 1."""
        return float(np.abs(1.0 - self.populations.sum(axis=1)).max())


__all__ = [
    "DriveParams",
    "HamiltonianTable",
    "LADDER_OF_TRANSITION",
    "LEVELS",
    "ModelConfig",
    "ModelId",
    "PopulationTrace",
    "StateVector",
    "TRANSITION_OF_LADDER",
    "Transition",
    "catalog",
    "check_increasing",
    "check_times",
    "get_model",
    "hamiltonian_shift_form",
    "hamiltonian_t",
    "hamiltonian_table",
    "row_of",
    "to_level_order",
    "to_row_order",
]
