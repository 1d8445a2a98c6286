"""Time evolution: lab-frame RK4 integration and the exact spectral trace.

The two routes are deliberately independent. ``rk4_solve`` marches the
time-dependent lab-frame equation dC/dt = -i H(t) C with classic fixed-step
RK4 and never touches the rotating frame; the spectral route evaluates the
closed-form solution from the frame matrix eigensystem. Populations are
frame invariant (the frame transformation is a diagonal unitary), so the two
must agree wherever both apply, which is the backbone cross-check of the
whole package.

Both routes check their times once per call through
``models.check_times``. ``solve_frame`` builds the rotating frame of one
(model, drive) pair and diagonalizes it once. Each method of the
resulting ``FrameSolution`` checks its grid once (``_checked_grid``,
which also picks how the phase planes are formed) and reads one list of
blocks of about 4 096 grid times (``_plane_blocks``). A block forms its
planes only when asked, so the working set is one block's, whatever the
grid's length. ``blocks`` returns that list with a function per block
that evaluates its populations afresh at every call, so the list reads
any number of times; ``populations`` and ``amplitudes`` fill whole
arrays. They take any initial states: with w = T c(0), each state's
parts [Re c; Im c] are one real (8, 8) @ (8, m) product of a block's
planes, and its populations re^2 + im^2. The frame matrix is real
symmetric, so U(t) = T.T exp(-i L t) T is complex symmetric and the
populations are reciprocal, P_{i<-j}(t) = P_{j<-i}(t): the ten pairs
i <= j hold all sixteen basis starts. ``max_population_gap`` compares
the pair tables of two solutions under a relabelling of the levels, one
batched (10, 4) @ (2, 4, m) product per side and block, both tables in
one workspace. ``trace_via_spectral`` is the one-state shorthand. Short
or non-uniform grids take one cos and one sin per value; long uniform
ones take an angle-addition table, which adds at most 9u max|L| max|t|
(u = 2^-53) to the phases, measured 2.8u on the figure grids and 5.3u
on grids crossing zero: below the eigenvalues' own backward error
(7.9u max|L| for the Jacobi solver), which the phase budget
u max|L| max|t| <= 1e-6 covers.

The RK4 route runs in real arithmetic: a complex 4-vector x + i y is the
real 8-vector [x; y], on which -i H acts as [[Im H, Re H], [-Re H, Im H]].
Each model holds these blocks of its seven generators once
(``ModelConfig.generator_blocks``); a call fills in its drive's energies,
couplings and frequencies, and one GEMM samples -i H exactly at the three
stage times of every step. The stages and the step maps M_n are real
batched products. The march x_{n+1} = M_n x_n is linear, so one build of
the maps serves an (8, k) block of k start states: ``rk4_solve_many``
marches every state of a (model, drive) at once, ``rk4_solve`` is its
one-state case, and ``_march`` runs each block of m steps as a
group-major two-level prefix product in about 2 sqrt(m) Python-level
calls. The populations are x^2 + y^2; the drift check alone judges the
norm. A drive whose max|H| leaves the window where the stage products
stay normal floats is refused before the march (``_RK4_SCALE_WINDOW``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericsError
from .frame import RESONANCE_TOL, RotatingFrame, rotate
from .models import (
    DriveParams,
    HamiltonianTable,
    ModelConfig,
    PopulationTrace,
    StateVector,
    check_times,
    hamiltonian_table,
    to_level_order,
    to_row_order,
)
from .spectral import EigenSystem, jacobi_eigh

__all__ = [
    "FrameSolution",
    "rk4_solve",
    "rk4_solve_many",
    "solve_frame",
    "trace_via_spectral",
]


def _stage(a: np.ndarray, k: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """a (I + scale k) = a + scale (a @ k) for each map, written into ``out``."""
    np.matmul(a, k, out=out)
    out *= scale
    out += a
    return out


def _rk4_step_matrices(
    table: HamiltonianTable, times: np.ndarray, h: float, work: np.ndarray
) -> np.ndarray:
    """Classic RK4 step maps M_n, x_{n+1} = M_n x_n, for steps starting at ``times``.

    Real (n, 8, 8) maps on [Re c; Im c] in row order. For dC/dt = A(t) C,
    A = -i H(t), the stages are matrices: K1 = A(t), K2 = A(t + h/2)(I + h/2
    K1), K3 = A(t + h/2)(I + h/2 K2), K4 = A(t + h)(I + h K3), and M = I +
    h/6 (K1 + 2 K2 + 2 K3 + K4). The samples of A and the stages fill
    ``work``, a flat buffer of at least 6 * 64 n floats that every block of a
    march reuses, and the maps are returned in it.
    """
    n = times.size
    work = work[: 6 * 64 * n].reshape(6, n, 8, 8)
    stage_times = np.add.outer((0.0, 0.5 * h, h), times)
    k1, a_mid, a_end = table.sample(stage_times, out=work[:3])
    k2 = _stage(a_mid, k1, 0.5 * h, work[3])
    k3 = _stage(a_mid, k2, 0.5 * h, work[4])
    k4 = _stage(a_end, k3, h, work[5])
    # M = I + h/6 (K1 + 2 (K2 + K3) + K4), accumulated in place in K2
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= h / 6.0
    k2.reshape(-1, 64)[:, ::9] += 1.0  # the diagonal of each 8x8 map
    return k2


def _march(maps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Slice n is maps[n] @ ... @ maps[0] @ start, for m real maps and an
    (8, k) block of start states; shape (m, 8, k).

    Group j holds steps j b .. j b + b - 1, b = isqrt(m), and identity maps
    pad the last group. Group-major, prefix[j, i] is the product of the
    first i + 1 steps of group j; the block at each group start follows
    from the previous one and that group's full product, and a group's
    states are one (b 8, 8) @ (8, k) GEMM of its prefix with its start.
    """
    m, k = len(maps), start.shape[1]
    b = math.isqrt(m)
    groups = -(-m // b)
    if groups * b > m:
        maps = np.concatenate((maps, np.broadcast_to(np.eye(8), (groups * b - m, 8, 8))))
    steps = maps.reshape(groups, b, 8, 8)
    prefix = np.empty((groups, b, 8, 8))
    prefix[:, 0] = steps[:, 0]
    for i in range(1, b):
        np.matmul(steps[:, i], prefix[:, i - 1], out=prefix[:, i])
    starts = np.empty((groups, 8, k))
    starts[0] = start
    for j in range(groups - 1):
        np.matmul(prefix[j, -1], starts[j], out=starts[j + 1])
    states = np.matmul(prefix.reshape(groups, b * 8, 8), starts)
    return states.reshape(groups * b, 8, k)[:m]


_UNIT_ROUNDOFF = 2.0**-53
# Steps whose matrices are built at once; bounds memory on long grids.
_RK4_BLOCK = 4096
# Largest final norm drift a march may show; beyond it the step is too coarse.
_RK4_NORM_TOL = 1e-6
# The window of max|H|, the largest |entry| of H(t), in which the stage
# products a @ k of ``_stage``, of order max|H|^2, stay normal floats at any
# step: max|H|^2 is normal at the bottom, and leaves a factor of 2^6 below
# the overflow threshold at the top for the eight-term sums and the growth
# of the stages within a step. Powers of two, so the window is exact under
# t -> 2^k t. An all-zero H takes no product and stays allowed.
_RK4_SCALE_WINDOW = (2.0**-511, 2.0**509)


def rk4_solve_many(
    model: ModelConfig, drive: DriveParams, states: Sequence[StateVector], t_grid
) -> list[tuple[PopulationTrace, np.ndarray]]:
    """Fixed-step RK4 march of several initial states over a uniform grid.

    One (trace, final state) pair per state, in order; each trace holds the
    populations at every grid point, and each final state is a read-only,
    level-ordered complex 4-vector. The step maps of each block of up to
    4096 steps use only samples of the lab-frame H(t), never the rotating
    frame, and are built once for all states. An empty state list, or a
    grid that ``check_times`` refuses, not strictly increasing, not uniform
    (a spacing off the first, h, by more than 1e-9 |h| + 8u max|t|; the
    second term allows for the rounding of the grid times themselves) or
    whose spacing overflows, is a ConfigurationError. NumericsError before
    the march when max|H|, the largest |entry| of H(t) (its level energies
    and couplings), is nonzero and lies outside ``_RK4_SCALE_WINDOW``, and
    after it when a state leaves the finite range or its final norm drifts
    from 1 by more than 1e-6 (the step was far too coarse for the couplings
    involved).
    """
    k = len(states)
    if k == 0:
        raise ConfigurationError("rk4_solve_many needs at least one initial state")
    table = hamiltonian_table(model, drive)
    t_grid, t_abs = check_times(t_grid)
    t0, n_steps, h = float(t_grid[0]), t_grid.size - 1, 0.0
    # a spacing or a divergent march must overflow to inf/nan silently; the
    # checks below turn that into a ConfigurationError or a NumericsError
    with np.errstate(over="ignore", invalid="ignore"):
        if n_steps:
            spacings = t_grid[1:] - t_grid[:-1]
            lo, hi = float(spacings.min()), float(spacings.max())
            if math.isinf(lo) or math.isinf(hi):
                raise ConfigurationError(
                    f"time grid spacing overflows to inf (max|t| = {t_abs:.3e});"
                    " a step between two grid times must be a finite float"
                )
            if lo <= 0:
                raise ConfigurationError("time grid must be strictly increasing")
            h = float(spacings[0])
            # rounding is monotone, so this is the largest |spacing - h|.
            # Rounding alone spreads a linspace grid's spacings by up to
            # about 2u max|t| (from 0, 2e-9 |h| at 1.6e7 points); the rule
            # is exact under t -> 2^k t
            if max(hi - h, h - lo) > 1e-9 * abs(h) + 8.0 * _UNIT_ROUNDOFF * t_abs:
                raise ConfigurationError("time grid must be uniform for fixed-step RK4")
            scale = max(float(np.abs(table.blocks[0]).max()), float(table.kappa.max()))
            bottom, top = _RK4_SCALE_WINDOW
            if scale and not bottom <= scale <= top:
                raise NumericsError(
                    f"RK4 cannot march max|H| = {scale:.3e}: its stage products, of order"
                    f" max|H|^2, stay normal floats only for max|H| in [{bottom:.3e}, {top:.3e}];"
                    " rescale the energies and couplings, and the times inversely"
                )

        marched = np.empty((n_steps + 1, 8, k))
        c_rows = np.array([to_row_order(c0.amplitudes) for c0 in states]).T
        marched[0, :4] = c_rows.real
        marched[0, 4:] = c_rows.imag
        # one buffer for the samples, stages and maps of every block
        work = np.empty(6 * min(_RK4_BLOCK, n_steps) * 64)
        for start in range(0, n_steps, _RK4_BLOCK):
            stop = min(start + _RK4_BLOCK, n_steps)
            times = np.arange(start, stop) * h
            times += t0
            maps = _rk4_step_matrices(table, times, h, work)
            marched[start + 1 : stop + 1] = _march(maps, marched[start])
        finals = to_level_order(marched[-1, :4] + 1j * marched[-1, 4:]).T.copy()
        finals.setflags(write=False)
        marched *= marched
        pops_rows = marched[:, :4] + marched[:, 4:]

    if not np.isfinite(pops_rows).all():
        raise NumericsError(
            "RK4 state became non-finite; reduce the step size or the couplings"
        )
    results = []
    for j in range(k):
        drift = abs(float(pops_rows[-1, :, j].sum()) - 1.0)
        if drift > _RK4_NORM_TOL:
            which = f" of initial state {j}" if k > 1 else ""
            raise NumericsError(
                f"RK4 state norm{which} drifted from 1 by {drift:.2e} (tol {_RK4_NORM_TOL:.0e})"
                f" at step size h = {h:.6g}; reduce the step size or the couplings"
            )
        trace = PopulationTrace._of_checked(t_grid, pops_rows[:, ::-1, j].copy())
        results.append((trace, finals[j]))
    return results


def rk4_solve(
    model: ModelConfig, drive: DriveParams, c0: StateVector, t_grid
) -> tuple[PopulationTrace, np.ndarray]:
    """The one-state case of ``rk4_solve_many``, with the same checks and errors."""
    (result,) = rk4_solve_many(model, drive, [c0], t_grid)
    return result


# Largest phase rounding error u max|L| max|t| the spectral route accepts;
# the RK4 norm tolerance, 1e-6, serves as the same kind of bound there.
_PHASE_TOL = 1e-6
# Fewest grid points for which the phase table pays. Per grid point, four
# cos and four sin cost about 0.09 us; the table costs about 27 us plus a
# little per point (2 cores, Python 3.11, NumPy 2.4.6, best of 5: 101 points
# 15 against 33 us, 301 points 27 against 28 us, 1 001 points 92 against
# 38 us).
_TABLE_MIN_POINTS = 320
# Grid times the spectral kernels evaluate at a time, rounded by
# ``_plane_blocks``; bounds their working set on long grids.
_BLOCK_ROWS = 4096


def _pointwise_planes(t_grid: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """cos(L t) over sin(L t), one row per eigenvalue in each half; one libm
    call per value."""
    theta = np.multiply.outer(eigenvalues, t_grid)
    planes = np.empty((2,) + theta.shape)
    np.cos(theta, out=planes[0])
    np.sin(theta, out=planes[1])
    return planes.reshape(-1, t_grid.size)


def _checked_grid(t_grid) -> tuple[np.ndarray, float, bool]:
    """The array and max|t| of ``check_times``, and whether the phase table
    serves the grid: at least ``_TABLE_MIN_POINTS`` times, each within
    4u max|t| of the time ``numpy.linspace(t[0], t[-1], n)`` forms, t[0] +
    k step with step = (t[-1] - t[0]) / (n - 1) and the last time t[-1]. A
    linspace grid passes exactly, whether or not it crosses zero. The
    times are compared ``_BLOCK_ROWS`` at a time, so a long grid's check
    needs no temporary of its length."""
    times, t_abs = check_times(t_grid)
    n, t0 = times.size, times[0]
    if n < _TABLE_MIN_POINTS:
        return times, t_abs, False
    tol = 4.0 * _UNIT_ROUNDOFF * t_abs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        step = (times[-1] - t0) / (n - 1)
        # numpy.linspace's own formation; its last time is t[-1] itself
        for start in range(0, n - 1, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n - 1)
            drift = np.arange(start, stop) * step + t0
            drift -= times[start:stop]
            if not np.abs(drift, out=drift).max() <= tol:
                return times, t_abs, False
    return times, t_abs, True


def _offset_factors(offsets: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """The right factors [[cos D, sin D], [-sin D, cos D]] of the angle
    addition table at the offsets D = L (t[i] - t[0]), the cos plane's
    factors and then the sin plane's, shape (2, m, 2, b)."""
    angles = np.multiply.outer(eigenvalues, offsets)
    right = np.empty((2, eigenvalues.size, 2, offsets.size))
    np.cos(angles, out=right[0, :, 0])
    np.sin(angles, out=right[1, :, 0])
    np.negative(right[1, :, 0], out=right[0, :, 1])
    right[1, :, 1] = right[0, :, 0]
    return right


def _anchored_planes(
    anchors: np.ndarray, right: np.ndarray, eigenvalues: np.ndarray, count: int
) -> np.ndarray:
    """The planes at anchor + offset, for the first ``count`` of the
    times that follow the anchors; ``right`` from ``_offset_factors``."""
    m, g, b = eigenvalues.size, anchors.size, right.shape[-1]
    angles = np.multiply.outer(eigenvalues, anchors)
    left = np.empty((m, g, 2))
    np.cos(angles, out=left[..., 0])
    np.sin(angles, out=left[..., 1])
    planes = np.empty((2 * m, g * b))
    np.matmul(left, right, out=planes.reshape(2, m, g, b))
    return planes[:, :count]


def _plane_blocks(
    grid: tuple[np.ndarray, float, bool], eigenvalues: np.ndarray
) -> list[tuple[int, Callable[[], np.ndarray]]]:
    """The blocks of an n-point grid from ``_checked_grid``: each block's
    first row and a function that forms its planes, cos(L t) in rows 0-3
    and sin(L t) in rows 4-7, at each call: by an angle addition table
    where it serves the grid, by one cos and one sin per value elsewhere.
    A block holds the largest multiple of b = isqrt(n) up to
    ``_BLOCK_ROWS`` times, and at least 2 b, so that every block starts
    at an anchor of the table and spans two or more.

    The table holds a uniform grid. Time j b + i is the anchor t[j b]
    plus the offset t[i] - t[0]; cos and sin are taken only at the
    sqrt(n) anchors and offsets, and one batched product
    [cos A, sin A] @ [[cos D, sin D], [-sin D, cos D]] gives cos(A + D),
    sin(A + D) at every time. A block takes its own anchors t[s::b] and
    the whole grid's offsets, so a grid of one block is one such product,
    and a block's planes are the whole product's columns bit for bit as
    far as OpenBLAS gives a column the same bits whatever the size of the
    product: measured up to b = 707 (OpenBLAS 0.3.31; from b = 708 the
    anchor count can move a last bit).
    """
    t_grid, _, table = grid
    n = t_grid.size
    b = math.isqrt(n)
    rows = b * max(2, _BLOCK_ROWS // b)
    # the last b times or fewer join the block before them: on one anchor
    # or one column NumPy would take a matrix-vector product, whose bits
    # differ from the matrix product's
    starts = range(0, max(n - b, 1), rows)
    bounds = zip(starts, [*starts[1:], n])
    if not table:
        return [(start, functools.partial(_pointwise_planes, t_grid[start:stop], eigenvalues))
                for start, stop in bounds]
    right = _offset_factors(t_grid[:b] - t_grid[0], eigenvalues)
    return [(start, functools.partial(
        _anchored_planes, t_grid[start:stop:b], right, eigenvalues, stop - start))
        for start, stop in bounds]


# [x, y] -> [y, -x], exactly: the lower half of ``_mix``' matrices from their upper half
_SWAP_SIGNS = np.array([[1.0], [-1.0]])
# The ten level pairs i <= j (0-based) of ``FrameSolution.max_population_gap``.
_PAIR_LEVELS = np.triu_indices(4)


def _pair_table(planes: np.ndarray, back: np.ndarray, out: np.ndarray, levels) -> np.ndarray:
    """Populations of ten level pairs on one block of planes, one row per
    pair and one column per grid time, written into ``out[0]`` and returned.

    Row r is the pair of 0-based levels i = levels[0][r] and
    j = levels[1][r]; ``back`` is T.T with its rows in level order.
    U(t) = T.T exp(-i L t) T is complex symmetric, so the population of
    level i from start j is that of level j from start i. For a basis
    start w = T c(0) is a real row of T, so the pair's parts are the
    product of rows i and j of T.T against the cos and the sin planes: one
    batched (10, 4) @ (2, 4, m) product writes them into ``out``, a
    (2, 10, m) block, where they are squared and summed in place.
    """
    pairs = back[levels[0]] * back[levels[1]]
    np.matmul(pairs, planes.reshape(2, 4, -1), out=out)
    out *= out
    out[0] += out[1]
    return out[0]


def _parts(mixes: list[np.ndarray], planes: np.ndarray) -> np.ndarray:
    """The (k, 8, m) parts [Re c; Im c] of k states on one block of planes:
    one (8, 8) @ (8, m) product of each state's ``FrameSolution._mix``."""
    parts = np.empty((len(mixes), 8, planes.shape[1]))
    for mix, out in zip(mixes, parts):
        np.matmul(mix, planes, out=out)
    return parts


def _block_populations(mixes: list[np.ndarray], planes: Callable[[], np.ndarray]) -> np.ndarray:
    """The (k, m, 4) populations of k states on one block of m grid times:
    the ``_parts`` of the planes formed here, squared and summed in place."""
    parts = _parts(mixes, planes())
    parts *= parts
    parts[:, :4] += parts[:, 4:]
    return parts[:, :4].transpose(0, 2, 1)


@dataclass(frozen=True)
class FrameSolution:
    """The rotating frame of one (model, drive) pair and its eigensystem.

    With T the diagonalizer and L the eigenvalues of the frame matrix, the
    row-ordered frame amplitudes are c(t) = T.T diag(exp(-i L t)) T c(0);
    populations are frame invariant, so |c(t)|^2 are the lab populations.
    """

    frame: RotatingFrame
    eigensystem: EigenSystem

    def _back(self, grid) -> np.ndarray:
        """T.T with its rows in level order, once the phases on a grid from
        ``_checked_grid`` pass their budget.

        Every kernel starts here. The phases carry an absolute rounding
        error of about u max|L| max|t| (u = 2^-53, from the rounded product
        L t and from L's own backward error); above 1e-6 they have lost
        their accuracy and NumericsError names both factors.
        """
        lam = self.eigensystem.eigenvalues
        lam_abs = max(-float(lam[0]), float(lam[-1]))
        budget = _UNIT_ROUNDOFF * lam_abs * grid[1]
        if not budget <= _PHASE_TOL:
            raise NumericsError(
                f"spectral phases lose accuracy: 2^-53 max|eigenvalue| max|t| ="
                f" {budget:.3e} > {_PHASE_TOL:.0e}, from max|eigenvalue| = {lam_abs:.3e}"
                f" times max|t| = {grid[1]:.3e}; shorten the grid or weaken the couplings"
            )
        return self.eigensystem.diagonalizer.T[::-1]

    def _mix(self, states: Iterable[StateVector], back: np.ndarray) -> list[np.ndarray]:
        """One (8, 8) matrix per state that takes the planes to [Re c; Im c],
        the parts of the state's level-ordered frame amplitudes c.

        With w = T c(0) = a + i b, exp(-i L t) w has the real part
        a cos + b sin and the imaginary part b cos - a sin: T.T times
        [[a, b], [b, -a]], whose lower half is the upper one's exact swap.
        """
        t_mat = self.eigensystem.diagonalizer
        mixes = []
        for c0 in states:
            w = t_mat @ to_row_order(c0.amplitudes)
            mix = np.empty((2, 4, 2, 4))  # [[back a, back b], [back b, -back a]]
            np.multiply(back[:, None], w.view(float).reshape(4, 2).T, out=mix[0])
            np.multiply(mix[0, :, ::-1], _SWAP_SIGNS, out=mix[1])
            mixes.append(mix.reshape(8, 8))
        return mixes

    def blocks(
        self, states: Iterable[StateVector], t_grid
    ) -> list[tuple[int, Callable[[], np.ndarray]]]:
        """Level-ordered populations of each state, one block of grid times
        at a time: a list of each block's first row and a function that
        evaluates its (k, m, 4) populations afresh at every call. Every
        check of ``populations`` runs here, once."""
        grid = _checked_grid(t_grid)
        mixes = self._mix(states, self._back(grid))
        return [(start, functools.partial(_block_populations, mixes, planes))
                for start, planes in _plane_blocks(grid, self.eigensystem.eigenvalues)]

    def populations(self, states: Iterable[StateVector], t_grid) -> list[np.ndarray]:
        """Level-ordered populations of each state, one row per grid time.

        re^2 + im^2 of the frame amplitudes, every block at once. A grid
        ``check_times`` refuses is a ConfigurationError, phases past their
        accuracy a NumericsError.
        """
        return list(self._populations(states, _checked_grid(t_grid)))

    def _populations(self, states: Iterable[StateVector], grid) -> np.ndarray:
        """The (k, n, 4) populations of k states on a grid from ``_checked_grid``."""
        mixes = self._mix(states, self._back(grid))
        out = np.empty((len(mixes), 4, grid[0].size)).transpose(0, 2, 1)
        for start, planes in _plane_blocks(grid, self.eigensystem.eigenvalues):
            pops = _block_populations(mixes, planes)
            out[:, start : start + pops.shape[1]] = pops
        return out

    def amplitudes(self, states: Iterable[StateVector], t_grid) -> list[np.ndarray]:
        """Level-ordered frame amplitudes of each state, one row per grid time.

        re + i im from the planes and mix of ``populations``.
        """
        grid = _checked_grid(t_grid)
        mixes = self._mix(states, self._back(grid))
        out = np.empty((len(mixes), 4, grid[0].size), dtype=complex)
        for start, planes in _plane_blocks(grid, self.eigensystem.eigenvalues):
            parts = _parts(mixes, planes())
            out[..., start : start + parts.shape[-1]] = parts[:, :4] + 1j * parts[:, 4:]
        return list(out.transpose(0, 2, 1))

    def max_population_gap(self, other: FrameSolution, levels: Sequence[int], t_grid) -> float:
        """The largest |P_i(t; start j) - P'_{levels[i-1]}(t; start levels[j-1])|
        over every level i, start level j and grid time t, where P are the
        populations of this solution and P' those of ``other``.

        ``levels`` relabels the levels 1..4 and must be a permutation of
        them. Both sides are reciprocal, so the sixteen (level, start)
        comparisons are the ten of the pairs i <= j, and the maximum is
        theirs bit for bit. Block by block, both pair tables
        (``_pair_table``), the other side's rows in the relabelled order,
        and their difference share one (3, 10, m) workspace, beside one
        side's planes at a time. Same checks and errors as ``populations``.
        """
        if sorted(levels) != [1, 2, 3, 4]:
            raise ConfigurationError(f"level relabelling {levels} is not a permutation of 1..4")
        order = np.asarray(levels, dtype=np.intp) - 1
        relabelled = (order[_PAIR_LEVELS[0]], order[_PAIR_LEVELS[1]])
        grid = _checked_grid(t_grid)
        backs = self._back(grid), other._back(grid)
        worst = np.float64(0.0)
        both = zip(_plane_blocks(grid, self.eigensystem.eigenvalues),
                   _plane_blocks(grid, other.eigensystem.eigenvalues))
        for (_, my_planes), (_, their_planes) in both:
            planes = my_planes()
            work = np.empty((3, 10, planes.shape[-1]))
            mine = _pair_table(planes, backs[0], work[:2], _PAIR_LEVELS)
            del planes  # one side's planes at a time
            theirs = _pair_table(their_planes(), backs[1], work[1:], relabelled)
            np.subtract(mine, theirs, out=mine)
            worst = np.maximum(worst, np.abs(mine, out=mine).max())  # nan stays nan
        return float(worst)


def solve_frame(
    model: ModelConfig, drive: DriveParams, allow_nonresonant: bool = False
) -> FrameSolution:
    """Rotate one (model, drive) pair into its frame and diagonalize it once.

    The frame matrix is real symmetric for any drive, but off resonance its
    diagonal is nonzero and the caller must opt in explicitly; the resonant
    case is the primary regime of the spectral route.
    """
    fr = rotate(model, drive)  # validates the drive first
    if not allow_nonresonant and not fr.is_resonant():
        raise ConfigurationError(
            f"drive is off resonance: max detuning {fr.max_detuning():.2e} exceeds"
            f" {RESONANCE_TOL:.0e} times the largest level gap or field frequency,"
            f" {fr.scale:.2e}; pass allow_nonresonant=True to proceed"
        )
    return FrameSolution(fr, jacobi_eigh(fr.h_tilde))


def trace_via_spectral(
    model: ModelConfig,
    drive: DriveParams,
    c0: StateVector,
    t_grid,
    allow_nonresonant: bool = False,
) -> PopulationTrace:
    """Exact populations of one initial state on a strictly increasing grid.

    Shorthand for ``solve_frame`` followed by ``FrameSolution.populations``;
    a caller with several initial states should solve once and evaluate them
    together.
    """
    solution = solve_frame(model, drive, allow_nonresonant)
    grid = _checked_grid(t_grid)
    return PopulationTrace._of_checked(grid[0], solution._populations([c0], grid)[0])
