"""SU(4) generator basis, structure constants, and level-shift operators.

Conventions
-----------
The fifteen generators ``lambda_1 .. lambda_15`` follow the generalized
Gell-Mann construction in dimension four: for each index pair j < k a
symmetric member (ones at (j, k) and (k, j)) and an antisymmetric member
(-i at (j, k), +i at (k, j)), interleaved with the three diagonal members
``sqrt(2 / (l (l + 1))) * diag(1, ..., 1, -l, 0, ...)``. The first eight
reproduce the SU(3) Gell-Mann matrices in the upper-left block. All are
hermitian, traceless, and pairwise orthonormal under ``Tr[g_i g_j] = 2 d_ij``.

Structure constants are defined through the traces

    f_ijk = Tr([g_i, g_j] g_k) / (4 i)        (totally antisymmetric)
    d_ijk = Tr({g_i, g_j} g_k) / 4            (totally symmetric)

so that ``[g_i, g_j] = 2i sum_k f_ijk g_k`` and
``{g_i, g_j} = delta_ij I + 2 sum_k d_ijk g_k``.

The six ladder families T, U, V, W, X, Z are the usual shift operators built
from generator pairs, e.g. ``T+ = (g_1 + i g_2) / 2``. Each "plus" member is
a single matrix unit; together the six connect every pair of the four levels
once. Their diagonal partners (T3, U3, ...) are population differences of the
two levels each family connects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_GENERATORS = 15

# Structure-constant entries at most this large are exact zeros.
_ZERO_TOL = 1e-10
# Largest residual verify_algebra accepts for each identity.
_VERIFY_TOL = 1e-12

# Ladder family -> generator indices (a, b) with plus = (g_a + i g_b) / 2.
LADDER_COMBOS: dict[str, tuple[int, int]] = {
    "T": (1, 2),
    "U": (6, 7),
    "V": (4, 5),
    "W": (9, 10),
    "X": (11, 12),
    "Z": (13, 14),
}

# Ladder family -> (upper level, lower level) it connects, levels labeled 1..4
# from the bottom. The matrix basis orders rows from the top level down, so
# level i sits at row 4 - i (zero-indexed).
TRANSITION_OF_LADDER: dict[str, tuple[int, int]] = {
    "T": (4, 3),
    "U": (3, 2),
    "V": (4, 2),
    "W": (4, 1),
    "X": (3, 1),
    "Z": (2, 1),
}

LADDER_OF_TRANSITION: dict[tuple[int, int], str] = {
    pair: name for name, pair in TRANSITION_OF_LADDER.items()
}

DIAGONAL_NAMES = ("T3", "U3", "V3", "W3", "X3", "Z3")


@dataclass(frozen=True)
class GeneratorSet:
    """The ordered SU(4) basis as a read-only (15, 4, 4) complex array."""

    matrices: np.ndarray

    def matrix(self, i: int) -> np.ndarray:
        """Return generator ``lambda_i`` for 1-based ``i``."""
        if not 1 <= i <= N_GENERATORS:
            raise IndexError(f"generator index {i} outside 1..{N_GENERATORS}")
        return self.matrices[i - 1]


@dataclass(frozen=True)
class StructureConstants:
    """Antisymmetric f and symmetric d as read-only (15, 15, 15) float arrays.

    ``f[i, j, k]`` is f_{i+1, j+1, k+1}: the arrays are zero-indexed, the
    generator labels and :meth:`f_at` / :meth:`d_at` are 1-based.
    """

    f: np.ndarray
    d: np.ndarray

    def f_at(self, i: int, j: int, k: int) -> float:
        return _entry(self.f, i, j, k)

    def d_at(self, i: int, j: int, k: int) -> float:
        return _entry(self.d, i, j, k)


@dataclass(frozen=True)
class ShiftOperators:
    """Ladder pairs and diagonal partners keyed by family letter."""

    plus: dict[str, np.ndarray]
    minus: dict[str, np.ndarray]
    diagonal: dict[str, np.ndarray]


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of the defining algebra identities.

    ``residuals`` is keyed by identity name in the order checked:
    trace, trace-normalization, commutation, anticommutation. A failing
    identity is reported, never thrown.
    """

    residuals: dict[str, float]
    tolerance: float
    failures: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _entry(t: np.ndarray, i: int, j: int, k: int) -> float:
    if not all(1 <= n <= N_GENERATORS for n in (i, j, k)):
        raise IndexError(f"generator index in {(i, j, k)} outside 1..{N_GENERATORS}")
    return float(t[i - 1, j - 1, k - 1])


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def build_generators() -> GeneratorSet:
    """Construct the ordered generalized Gell-Mann basis for dimension 4."""
    mats: list[np.ndarray] = []
    dim = 4
    diag_rank = 0
    for k in range(1, dim):
        for j in range(k):
            s = np.zeros((dim, dim), dtype=complex)
            s[j, k] = 1.0
            s[k, j] = 1.0
            mats.append(s)
            a = np.zeros((dim, dim), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            mats.append(a)
        diag_rank += 1
        v = np.zeros(dim)
        v[:diag_rank] = 1.0
        v[diag_rank] = -diag_rank
        mats.append(np.diag(v).astype(complex) * math.sqrt(2.0 / (diag_rank * (diag_rank + 1))))
    stack = np.stack(mats)
    assert stack.shape == (N_GENERATORS, dim, dim)
    return GeneratorSet(matrices=_frozen(stack))


def _commutators(gm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All commutators and anticommutators ``[g_i, g_j]``, ``{g_i, g_j}``.

    Every product g_i g_j comes from one (60, 4) @ (4, 60) GEMM: rows are
    (i, a), columns (j, c), and the shared index b is contracted.
    """
    n = len(gm)
    rows = gm.reshape(n * 4, 4)
    cols = gm.transpose(1, 0, 2).reshape(4, n * 4)
    prod = (rows @ cols).reshape(n, 4, n, 4).transpose(0, 2, 1, 3)
    swapped = prod.transpose(1, 0, 2, 3)
    return prod - swapped, prod + swapped


def _traces_against(pairs: np.ndarray, gm: np.ndarray) -> np.ndarray:
    """Tr(pairs[i, j] g_k) for every (i, j, k), as one (n^2, 16) @ (16, n) GEMM."""
    n = len(gm)
    return (pairs.reshape(n * n, 16) @ gm.transpose(0, 2, 1).reshape(n, 16).T).reshape(n, n, n)


def _expand(t: np.ndarray, gm: np.ndarray) -> np.ndarray:
    """sum_k t[i, j, k] g_k for a real t: one real GEMM on the float view of gm."""
    n = len(gm)
    return (t.reshape(n * n, n) @ gm.reshape(n, 16).view(float)).view(complex).reshape(n, n, 4, 4)


def structure_constants(g: GeneratorSet) -> StructureConstants:
    """Compute f and d from traces of (anti)commutators.

    The traces must come out real to 1e-13; a larger imaginary residue means
    the input is not a hermitian orthonormal basis and is rejected. Entries
    of magnitude at most 1e-10 are set to exactly 0.
    """
    gm = g.matrices
    comm, acom = _commutators(gm)
    # 4i f and 4 d: f is the imaginary part over 4, the real part is residue
    f_tr = _traces_against(comm, gm)
    d_tr = _traces_against(acom, gm)
    residue = max(np.abs(f_tr.real).max(), np.abs(d_tr.imag).max()) / 4.0
    if residue > 1e-13:
        raise ValueError(f"structure-constant traces are not real (residue {residue:.2e})")
    f, d = f_tr.imag / 4.0, d_tr.real / 4.0
    f[np.abs(f) <= _ZERO_TOL] = 0.0
    d[np.abs(d) <= _ZERO_TOL] = 0.0
    return StructureConstants(f=_frozen(f), d=_frozen(d))


def build_shift_operators(g: GeneratorSet) -> ShiftOperators:
    """Assemble the six ladder pairs and their diagonal partners."""
    lam = g.matrix
    plus = {
        name: _frozen((lam(a) + 1.0j * lam(b)) / 2.0)
        for name, (a, b) in LADDER_COMBOS.items()
    }
    minus = {
        name: _frozen((lam(a) - 1.0j * lam(b)) / 2.0)
        for name, (a, b) in LADDER_COMBOS.items()
    }
    s3 = math.sqrt(3.0)
    diagonal = {
        "T3": lam(3).real.copy(),
        "U3": ((s3 * lam(8) - lam(3)) / 2.0).real,
        "V3": ((s3 * lam(8) + lam(3)) / 2.0).real,
        "W3": (lam(3) / 2.0 + lam(8) / (2.0 * s3) + math.sqrt(2.0 / 3.0) * lam(15)).real,
        "X3": (-lam(3) / 2.0 + lam(8) / (2.0 * s3) + math.sqrt(2.0 / 3.0) * lam(15)).real,
        "Z3": (-lam(8) / s3 + math.sqrt(2.0 / 3.0) * lam(15)).real,
    }
    return ShiftOperators(
        plus=plus, minus=minus, diagonal={k: _frozen(v) for k, v in diagonal.items()}
    )


def verify_algebra(g: GeneratorSet, s: StructureConstants) -> VerificationReport:
    """Check the four defining identities and report residuals.

    Checked in a fixed order so the first failure is deterministic, each
    against the tolerance 1e-12:

    1. trace:               Tr g_i = 0
    2. trace-normalization: Tr[g_i g_j] = 2 delta_ij
    3. commutation:         [g_i, g_j] = 2i sum_k f_ijk g_k
    4. anticommutation:     {g_i, g_j} = delta_ij I + 2 sum_k d_ijk g_k
    """
    gm = g.matrices
    n = N_GENERATORS

    trace_res = float(np.abs(np.einsum("iaa->i", gm)).max())

    pair_tr = np.einsum("iab,jba->ij", gm, gm)
    norm_res = float(np.abs(pair_tr - 2.0 * np.eye(n)).max())

    comm, acom = _commutators(gm)
    comm_res = float(np.abs(comm - 2.0j * _expand(s.f, gm)).max())
    diag = np.arange(n)
    acom[diag, diag] -= np.eye(4)  # the delta_ij I term
    acom_res = float(np.abs(acom - 2.0 * _expand(s.d, gm)).max())

    residuals = {
        "trace": trace_res,
        "trace-normalization": norm_res,
        "commutation": comm_res,
        "anticommutation": acom_res,
    }
    failures = tuple(name for name, r in residuals.items() if r > _VERIFY_TOL)
    return VerificationReport(residuals=residuals, tolerance=_VERIFY_TOL, failures=failures)
