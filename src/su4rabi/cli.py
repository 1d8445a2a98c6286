"""Command line interface.

Subcommands
-----------
verify      check the generator algebra and the frame reduction of all models
simulate    integrate one configuration and write a population-trace CSV
figure      emit the four standard traces (start levels 1..4) of one figure id
symmetry    measure the inversion-partner population deviation
reduce-su2  run the spin-3/2 reduction and report eigenvalues and deviation

Exit codes: 0 success, 1 verification or contract failure, 2 configuration
error, 3 numerical blow-up.

CSV traces carry ``#``-prefixed metadata lines, then the header
``t,p1,p2,p3,p4``, then one ``%.12e``-formatted row per grid point. Output
is byte-stable across runs. The default output directory is the current
directory, overridable with SU4RABI_OUTDIR.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import algebra
from .dynamics import rk4_solve, solve_frame
from .errors import ConfigurationError, NumericsError
from .frame import check_time_independence, resonant_drive, rotate
from .models import (
    LEVELS,
    DriveParams,
    ModelId,
    PopulationTrace,
    StateVector,
    Transition,
    catalog,
    check_increasing,
    get_model,
)
# not called here since reduce-su2 reads its eigenvalues from the solved
# frame; kept as a module binding because the benchmark's tracer self-test
# patches and calls cli.jacobi_eigh
from .spectral import jacobi_eigh  # noqa: F401
from .symmetry import (
    check_inversion,
    inversion_partner,
    spin32_reduction,
)

DEFAULT_OMEGA = (1.0, 2.0, 3.0)
DEFAULT_T_MAX = 50.0
DEFAULT_POINTS = 5001

# Standard coupling set: strong (4,1), medium (4,2)/(3,1), weak single-step.
STANDARD_COUPLINGS: dict[Transition, float] = {
    (4, 1): 0.7,
    (4, 2): 0.4,
    (3, 1): 0.4,
    (2, 1): 0.24,
    (3, 2): 0.24,
    (4, 3): 0.24,
}

FIGURE_MODELS = {7: "I", 8: "II", 9: "III", 10: "IV", 11: "V", 12: "VI"}
CASE_SUFFIX = {1: "a", 2: "b", 3: "c", 4: "d"}

SYMMETRY_PAIRS = {"I:VI": "I", "II:V": "II", "III": "III", "IV": "IV"}


def default_outdir() -> str:
    return os.environ.get("SU4RABI_OUTDIR", ".")


def parse_transition_key(key: str) -> Transition:
    if len(key) != 2 or not key.isdigit():
        raise ConfigurationError(f"bad transition key {key!r}; expected e.g. '41'")
    a, b = int(key[0]), int(key[1])
    if not (1 <= b < a <= 4):
        raise ConfigurationError(
            f"bad transition key {key!r}; levels must satisfy 4 >= a > b >= 1"
        )
    return (a, b)


def transition_key(tr: Transition) -> str:
    return f"{tr[0]}{tr[1]}"


def _parse_assignments(tokens: list[str], what: str) -> dict[str, float]:
    """KEY=VALUE flag tokens as config entries; a bad key or value names the flag."""
    out: dict[str, float] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ConfigurationError(f"bad {what} entry {token!r}; expected KEY=VALUE")
        try:
            parse_transition_key(key)  # its ConfigurationError is a ValueError
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad {what} value in {token!r}") from exc
    return out


def _number(value, name: str) -> float:
    """A JSON number as a float; any other value is a ConfigurationError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} = {value} overflows a float") from None


def _numbers(values, name: str, length: int) -> list[float]:
    """A JSON array of ``length`` numbers as floats."""
    if not isinstance(values, (list, tuple)) or len(values) != length:
        raise ConfigurationError(f"{name} must list {length} numbers, got {values!r}")
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _number_map(values, name: str) -> dict[Transition, float]:
    """A JSON object from transition keys to numbers."""
    if not isinstance(values, dict):
        raise ConfigurationError(f"{name} must map transitions to numbers, got {values!r}")
    return {parse_transition_key(k): _number(v, f"{name}[{k!r}]") for k, v in values.items()}


@dataclass
class RunConfig:
    """One simulate run; read from the JSON config format."""

    model: ModelId
    omega: tuple[float, float, float] = DEFAULT_OMEGA
    kappas: dict[Transition, float] = field(default_factory=dict)
    fields: dict[Transition, float] | None = None  # None means resonant
    init: int | tuple[tuple[float, float], ...] = 1
    t_max: float = DEFAULT_T_MAX
    steps: int = DEFAULT_POINTS
    method: str = "spectral"

    def __post_init__(self) -> None:
        if self.method not in ("spectral", "rk4"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ConfigurationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ConfigurationError("steps must be at least 1")
        # linspace counts the grid through a float, which rounds 2^60 - 64 up
        # to 2^60, past the largest array of floats: the limit is half that
        if self.steps > np.iinfo(np.intp).max // 16:
            raise ConfigurationError(
                f"steps = {self.steps} is more grid points than a NumPy array can hold"
            )
        if not math.isfinite(self.t_max):
            raise ConfigurationError(f"t_max must be finite, got {self.t_max}")
        if self.t_max < 0:
            raise ConfigurationError("t_max must be non-negative")
        if self.t_max == 0 and self.steps > 1:
            raise ConfigurationError("t_max = 0 allows only a single grid point")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        """Parse a decoded JSON config; a malformed value is a ConfigurationError."""
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {"model", "omega", "kappas", "fields", "resonant", "init", "t_max", "steps", "method"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in data:
            raise ConfigurationError("config is missing 'model'")
        try:
            model = ModelId(data["model"])
        except ValueError as exc:
            raise ConfigurationError(f"unknown model {data['model']!r}") from exc
        omega = tuple(_numbers(data.get("omega", DEFAULT_OMEGA), "omega", 3))
        kappas = _number_map(data.get("kappas", {}), "kappas")
        resonant = data.get("resonant", False)
        if not isinstance(resonant, bool):
            raise ConfigurationError(f"resonant must be true or false, got {resonant!r}")
        if resonant and "fields" in data:
            raise ConfigurationError("config sets both 'resonant' and 'fields'")
        fields = _number_map(data["fields"], "fields") if "fields" in data else None
        init_raw = data.get("init", 1)
        init: int | tuple[tuple[float, float], ...]
        if isinstance(init_raw, int) and not isinstance(init_raw, bool):
            init = init_raw
        else:
            if not isinstance(init_raw, (list, tuple)) or len(init_raw) != 4:
                raise ConfigurationError(
                    f"init must be a level or four [re, im] pairs, got {init_raw!r}"
                )
            init = tuple(
                tuple(_numbers(p, f"init[{i}]", 2)) for i, p in enumerate(init_raw)
            )  # type: ignore[assignment]
        t_max = _number(data.get("t_max", DEFAULT_T_MAX), "t_max")
        return cls(
            model=model,
            omega=omega,  # type: ignore[arg-type]
            kappas=kappas,
            fields=fields,
            init=init,
            t_max=t_max,
            steps=data.get("steps", DEFAULT_POINTS),
            method=str(data.get("method", "spectral")),
        )


def initial_state(init: int | tuple[tuple[float, float], ...]) -> StateVector:
    if isinstance(init, int):
        return StateVector.basis(init)
    amps = np.array([complex(re, im) for re, im in init])
    norm = float(np.sqrt(np.sum(np.abs(amps) ** 2)))
    if not abs(norm - 1.0) <= 1e-9:  # NaN amplitudes fail too
        raise ConfigurationError(
            f"initial amplitudes have norm {norm:.12f}; must be 1 to 1e-9"
        )
    return StateVector(amps / norm)


def build_drive(cfg: RunConfig) -> DriveParams:
    model = get_model(cfg.model)
    coupling = {tr: 0.0 for tr in model.allowed}
    for tr, v in cfg.kappas.items():
        if tr not in model.allowed:
            raise ConfigurationError(
                f"transition {transition_key(tr)} is forbidden in model {model.id}"
            )
        coupling[tr] = v
    if cfg.fields is None:
        return resonant_drive(model, cfg.omega, coupling)
    drive = DriveParams(omega=cfg.omega, field_freq=dict(cfg.fields), coupling=coupling)
    drive.validate_for(model)
    return drive


@dataclass(frozen=True)
class StreamedTrace:
    """One start state's spectral trace, evaluated a block of grid times at a time.

    It reads like a ``PopulationTrace``: ``times`` is the checked grid, and
    ``populations`` evaluates every row at once. ``blocks`` is the list of
    ``FrameSolution.blocks``, made once every check has passed, which each
    ``write_trace_csv`` evaluates afresh: a trace writes any number of times.
    """

    times: np.ndarray
    blocks: list[tuple[int, Callable[[], np.ndarray]]]

    @property
    def populations(self) -> np.ndarray:
        return np.concatenate([evaluate()[0] for _, evaluate in self.blocks])


def run_trace(cfg: RunConfig, allow_nonresonant: bool = False) -> PopulationTrace | StreamedTrace:
    """The trace of one run, with every check that can refuse it done: an
    RK4 trace is marched in full, a spectral one is evaluated as it is written."""
    model = get_model(cfg.model)
    drive = build_drive(cfg)
    state = initial_state(cfg.init)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps)
    if cfg.method == "rk4":
        trace, _ = rk4_solve(model, drive, state, t_grid)
        return trace
    blocks = solve_frame(model, drive, allow_nonresonant).blocks([state], t_grid)
    check_increasing(t_grid)
    return StreamedTrace(t_grid, blocks)


def trace_metadata(cfg: RunConfig) -> list[tuple[str, str]]:
    return [
        ("model", cfg.model.value),
        ("omega", " ".join(str(x) for x in cfg.omega)),
        ("kappa", " ".join(
            f"{transition_key(tr)}={v}" for tr, v in sorted(cfg.kappas.items(), reverse=True)
        ) or "none"),
        ("fields", "resonant" if cfg.fields is None else " ".join(
            f"{transition_key(tr)}={v}" for tr, v in sorted(cfg.fields.items(), reverse=True)
        )),
        ("init", f"level {cfg.init}" if isinstance(cfg.init, int) else "amplitudes " + " ".join(
            f"{re},{im}" for re, im in cfg.init
        )),
        ("method", cfg.method),
        ("grid", f"t_max={cfg.t_max} points={cfg.steps}"),
    ]


# One CSV row: t, p1..p4. printf's %e and format()'s .12e share one
# float-to-string routine, so the bytes match a per-value f-string.
_CSV_ROW = ",".join(["%.12e"] * 5) + "\n"
# Rows rendered at a time; bounds memory on long grids.
_CSV_BLOCK = 4096

# Tables of the vectorised %.12e kernel. A value x in [1e-99, 1e99) prints as
# "d.dddddddddddde±XX" (18 bytes) and is followed by ',' or '\n', so every row
# of such values is 95 bytes wide and one value is one 19-byte _CSV_FIELD.
_CSV_WIDTH = 95
_POW10_MIN = -90
# correctly rounded 10^k for k = 12 - E over every exponent E the kernel
# meets, -101..100; NumPy's power is not correctly rounded for all k
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 115)])


def _pow10_lo(k: int, power: float) -> float:
    """10^k - power, rounded to nearest; Python's int / int rounds correctly."""
    num, den = power.as_integer_ratio()
    up, down = 10 ** max(k, 0), 10 ** max(-k, 0)
    return (up * den - num * down) / (den * down)


# the low parts: 10^k = _POW10 + _POW10_LO, to within u |_POW10_LO|
_POW10_LO = np.array([_pow10_lo(k, p) for k, p in enumerate(_POW10.tolist(), _POW10_MIN)])
_SPLIT = 2.0**27 + 1  # Veltkamp's splitting constant for binary64
_ZERO_FIELD = np.frombuffer(b"0.000000000000e+00", np.uint8)
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
# "0000".."9999", one uint32 each
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view("<u4").ravel()
# "e-99".."e+99" as one uint32 each, indexed by the power index
# k - _POW10_MIN of 10^k, k = 12 - E; a value's final exponent E lies in
# -99..99, and the entries past it are never read
_e = 12 - _POW10_MIN - np.arange(_POW10.size)
_EXPONENT = np.column_stack((
    np.full(_e.size, ord("e")),
    np.where(_e < 0, ord("-"), ord("+")),
    _DIGITS4.view(np.uint8).reshape(-1, 4)[abs(_e) % 100, 2:],  # "00".."99"
)).astype(np.uint8).view("<u4").ravel()
del _e
_CSV_FIELD = np.dtype({
    "names": ["lead", "dot", "g1", "g2", "g3", "exp", "sep"],
    "formats": ["u1", "u1", "<u4", "<u4", "<u4", "<u4", "u1"],
    "offsets": [0, 1, 2, 6, 10, 14, 18],
    "itemsize": 19,
})


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into high and low halves of 26 bits each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _format_csv_rows(block: np.ndarray) -> tuple[memoryview | bytes, int]:
    """The ``_CSV_ROW`` bytes of an (n, 5) float block, and how many values printf wrote.

    For x in [1e-99, 1e99) let E be its decimal exponent, k = 12 - E, P the
    correctly rounded 10^k and y = fl(x P): |y - x 10^k| <= (2u + u^2) y
    < 2.3e-3 for y < 1e13 (u = 2^-53). So when y lies at least 0.01 from a
    half-integer, rint(y) are the 13 digits that printf's exact rounding
    gives, including a carry into the next decade.

    A near-tie is settled by the residual r = x 10^k - rint(y), computed as
    (y - rint(y)) + e + x p_lo. Here e = x P - y comes exactly from Dekker's
    two-product on a Veltkamp split, and p_lo = 10^k - P is _POW10_LO. The
    difference y - rint(y) is exact (|y| < 2^53 ulp(y)) and so is e: no
    partial product underflows, since x P ~ 1e12. p_lo carries a relative
    error of u and |p_lo| <= u P, so x p_lo is off by at most 2 u^2 y
    < 2.5e-19. The two additions, of magnitudes below 0.51, add at most
    2 * 0.51 u < 1.2e-16. So r is within 2e-16 of the exact residual, and
    the digits are rint(y) + 1 for r > 0.5 and rint(y) - 1 for r < -0.5.
    Only a value with ||r| - 0.5| < 1e-12 goes to printf, in its 18-byte
    slot: an exact decimal half-way case, which printf rounds to even.

    The other values have their own slots: +0.0 is a constant, and by
    ``_CSV_ROW`` printf renders every row that holds a value whose text has
    another width: a negative value, -0.0, nan, inf, or a magnitude outside
    [1e-99, 1e99), subnormals included.

    Each array is freed, or reused in place, as soon as it is spent: a
    value's power index k - _POW10_MIN stands for its exponent throughout,
    y - rint(y) takes y's place, and the digit groups come off the digits
    in place, four at a time. The rendered buffer is returned as a view,
    not copied into bytes, unless a wide row is spliced in.
    """
    n = len(block)
    x = block.ravel()
    fast = (x >= 1e-99) & (x < 1e99)  # also false for nan
    special = np.flatnonzero(~fast)
    safe = np.where(fast, x, 1.0)
    del fast
    power = np.log10(safe)
    np.floor(power, out=power)
    np.subtract(12 - _POW10_MIN, power, out=power)
    power = power.astype(np.intp)
    y = _POW10.take(power)
    y *= safe
    del safe
    # log10 can miss the decade by one next to a power of ten
    off = np.flatnonzero((y < 1e12) | (y >= 1e13))
    if off.size:
        power[off] += np.where(y[off] < 1e12, 1, -1)
        y[off] = x[off] * _POW10.take(power[off])
    rounded = np.rint(y)
    np.subtract(y, rounded, out=y)  # exact; y now holds y - rint(y)
    near = np.flatnonzero((y > 0.49) | (y < -0.49))
    half = near
    if near.size:
        xs, rs, ds, k = x[near], rounded[near], y[near], power[near]
        ys = rs + ds  # y itself, exactly
        xh, xl = _split(xs)
        ph, pl = _split(_POW10.take(k))
        e = ((xh * ph - ys) + xh * pl + xl * ph) + xl * pl
        r = ds + e + xs * _POW10_LO.take(k)
        rounded[near] = rs + np.rint(r)
        half = near[np.abs(np.abs(r) - 0.5) < 1e-12]
    del y
    digits = rounded.astype(np.int64)
    del rounded
    carry = digits == 10**13
    digits[carry] = 10**12
    power -= carry

    buf = np.empty((n, _CSV_WIDTH), np.uint8)
    field = buf.view(_CSV_FIELD).reshape(-1)
    field["exp"] = _EXPONENT.take(power)
    del power, carry
    field["dot"] = ord(".")
    field["sep"] = ord(",")
    buf[:, -1] = ord("\n")
    # four digits at a time off the end: the quotient goes to the other
    # array, the remainder stays in place (floor_divide by a constant is
    # far faster than divmod)
    rest = digits // 10**4
    scratch = rest * 10**4
    digits -= scratch
    field["g3"] = _DIGITS4.take(digits)
    np.floor_divide(rest, 10**4, out=digits)
    rest -= np.multiply(digits, 10**4, out=scratch)
    field["g2"] = _DIGITS4.take(rest)
    np.floor_divide(digits, 10**4, out=rest)
    digits -= np.multiply(rest, 10**4, out=scratch)
    field["g1"] = _DIGITS4.take(digits)
    field["lead"] = rest + ord("0")
    del digits, rest, scratch
    slots = buf.reshape(-1, 19)
    wide = []
    if special.size:
        odd = x[special]
        zero = (odd == 0) & ~np.signbit(odd)
        slots[special[zero], :18] = _ZERO_FIELD
        rows = special[~zero] // 5
        if rows.size:
            # a mask, not np.unique: that imports numpy.ma, about 2 MB
            is_wide = np.zeros(n, bool)
            is_wide[rows] = True
            wide = np.flatnonzero(is_wide).tolist()
            half = half[~is_wide[half // 5]]
    if half.size:
        text = "%.12e" * half.size % tuple(x[half].tolist())
        slots[half, :18] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 18)
    if not wide:
        return buf.reshape(-1).data, half.size
    pieces = []
    start = 0
    for row in wide:
        pieces.append(buf[start:row])
        pieces.append((_CSV_ROW % tuple(block[row].tolist())).encode())
        start = row + 1
    pieces.append(buf[start:])
    return b"".join(pieces), half.size + 5 * len(wide)


def _write_csvs(paths: list[str], metadata: list[list[tuple[str, str]]], times: np.ndarray,
                blocks: list[tuple[int, Callable[[], np.ndarray]]]) -> float:
    """Write k traces as CSV, one block of rows at a time: file i takes the
    header lines of ``metadata[i]``, then for each block, its first row and
    a function of its (k, m, 4) populations, the m rows of times and trace
    i's populations. Returns the max norm error: the largest deviation of a
    row's population sum from 1, a running maximum over the blocks (nan stays nan)."""
    worst = np.float64(0.0)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for fh, meta in zip(files, metadata):
            head = "".join(f"# {key} = {value}\n" for key, value in meta)
            fh.write((head + "t,p1,p2,p3,p4\n").encode())
        for start, evaluate in blocks:
            pops = evaluate()
            rows = times[start : start + pops.shape[1]]
            for fh, trace in zip(files, pops):
                worst = np.maximum(worst, np.abs(1.0 - trace.sum(axis=1)).max())
                fh.write(_format_csv_rows(np.column_stack((rows, trace)))[0])
    return float(worst)


def write_trace_csv(
    path: str, trace: PopulationTrace | StreamedTrace, metadata: list[tuple[str, str]]
) -> float:
    """Write a trace as CSV, one block of rows at a time, and return its max
    norm error (see ``_write_csvs``). A spectral trace evaluates its blocks;
    an RK4 trace's populations go in as (1, m, 4) slices."""
    if isinstance(trace, StreamedTrace):
        blocks = trace.blocks
    else:
        pops = trace.populations[None]
        blocks = [(start, lambda start=start: pops[:, start : start + _CSV_BLOCK])
                  for start in range(0, pops.shape[1], _CSV_BLOCK)]
    return _write_csvs([path], [metadata], trace.times, blocks)


# --- subcommands -----------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    gens = algebra.build_generators()
    if getattr(args, "inject_fault", None) == "scale-lambda1":
        mats = gens.matrices.copy()
        mats[0] *= 2.0
        mats.setflags(write=False)
        gens = algebra.GeneratorSet(matrices=mats)
    consts = algebra.structure_constants(gens)
    report = algebra.verify_algebra(gens, consts)
    for name in ("trace", "trace-normalization", "commutation", "anticommutation"):
        print(f"identity {name}: residual {report.residuals[name]:.3e}")
    if not report.passed:
        print(f"FAIL: identity {report.first_failure} exceeds {report.tolerance:.0e}")
        return 1

    frame_tol = 1e-12
    sample_times = (0.0, 0.7, 1.3, 2.9, 4.1)
    worst = report.max_residual
    omega = (1.0, math.sqrt(2.0), math.pi / 3.0)
    for model in catalog():
        coupling = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
        base = resonant_drive(model, omega, coupling)
        offsets = {tr: 0.1 * (i + 1) for i, tr in enumerate(model.sorted_transitions())}
        drive = DriveParams(
            omega=omega,
            field_freq={tr: base.field_freq[tr] + offsets[tr] for tr in model.allowed},
            coupling=coupling,
        )
        drift = check_time_independence(model, drive, sample_times)
        worst = max(worst, drift)
        print(f"model {model.id.value}: frame drift {drift:.3e}")
        if drift > frame_tol:
            print(f"FAIL: model {model.id.value} frame drift exceeds {frame_tol:.0e}")
            return 1
    print(f"summary: 15 generators, 6 models, max residual {worst:.3e} (pass)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigurationError(f"config {args.config} is not valid JSON: {exc}") from exc
    else:
        # the config document the flags stand for; errors found here name the flag
        if args.model is None:
            raise ConfigurationError("either --config or --model is required")
        if args.resonant and args.field:
            raise ConfigurationError("--resonant and --field are mutually exclusive")
        try:
            init = [float(x) for x in args.init.split(",")] if "," in args.init else int(args.init)
        except ValueError as exc:
            raise ConfigurationError(f"bad --init value {args.init!r}") from exc
        if isinstance(init, list):
            if len(init) != 8:
                raise ConfigurationError(
                    "--init amplitudes need 8 comma-separated numbers (re,im x 4)"
                )
            init = [init[i : i + 2] for i in range(0, 8, 2)]
        data = dict(model=args.model, omega=args.omega, init=init, t_max=args.t_max,
                    steps=args.steps, method=args.method,
                    kappas=_parse_assignments(args.kappa or [], "--kappa"))
        if args.field:
            data["fields"] = _parse_assignments(args.field, "--field")
    cfg = RunConfig.from_json_dict(data)
    if args.show_frame:
        fr = rotate(get_model(cfg.model), build_drive(cfg))
        for tr, value in sorted(fr.detunings.items(), reverse=True):
            print(f"detuning {transition_key(tr)}: {value:+.12e}")
        print("frame matrix (rows and columns ordered level 4..1):")
        for row in fr.h_tilde:
            print("  " + " ".join(f"{x:+.12e}" for x in row))
    try:
        trace = run_trace(cfg, allow_nonresonant=args.allow_nonresonant)
    except MemoryError:
        raise ConfigurationError(
            f"not enough memory for a grid of --steps {cfg.steps} points"
        ) from None
    out = args.out or os.path.join(default_outdir(), "trace.csv")
    norm_error = write_trace_csv(out, trace, trace_metadata(cfg))
    print(f"wrote {out} ({trace.times.size} rows, max norm error {norm_error:.3e})")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Write the four standard traces of one figure, start levels 1..4.

    The frame is solved once and ``FrameSolution.blocks`` evaluates the
    four basis starts together, block by block; ``_write_csvs``, the loop
    of ``simulate``, writes each block to all four files before the next
    is evaluated, so each trace is byte for byte the CSV of ``simulate``
    from that start level.
    """
    if args.id not in FIGURE_MODELS:
        raise ConfigurationError(f"figure id {args.id} outside 7..12")
    model = get_model(FIGURE_MODELS[args.id])
    out_dir = args.out_dir or default_outdir()
    os.makedirs(out_dir, exist_ok=True)
    kappas = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
    cfg = RunConfig(model=model.id, kappas=kappas)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps)
    starts = [StateVector.basis(level) for level in LEVELS]
    blocks = solve_frame(model, build_drive(cfg)).blocks(starts, t_grid)
    paths = [os.path.join(out_dir, f"fig{args.id}{CASE_SUFFIX[level]}.csv") for level in LEVELS]
    metadata = [trace_metadata(replace(cfg, init=level)) for level in LEVELS]
    if args.id == 10:
        for meta in metadata:  # the paper figure's label; the run itself is resonant
            meta.append(("omega_field", "0.4 0.4 0.4"))
    _write_csvs(paths, metadata, t_grid, blocks)
    print(f"wrote {', '.join(paths)}")
    return 0


def cmd_symmetry(args: argparse.Namespace) -> int:
    if args.pair not in SYMMETRY_PAIRS:
        raise ConfigurationError(
            f"unknown pair {args.pair!r}; choose from {sorted(SYMMETRY_PAIRS)}"
        )
    source = get_model(SYMMETRY_PAIRS[args.pair])
    partner = inversion_partner(source.id)
    coupling = {tr: STANDARD_COUPLINGS[tr] for tr in source.allowed}
    drive = resonant_drive(source, DEFAULT_OMEGA, coupling)
    t_grid = np.linspace(0.0, DEFAULT_T_MAX, 2001)
    worst = check_inversion(source.id, drive, t_grid)
    print(
        f"inversion {source.id.value} -> {partner.value}:"
        f" max population deviation {worst:.3e} over t in [0, {DEFAULT_T_MAX:g}]"
    )
    if worst >= 1e-9:
        print("FAIL: deviation exceeds 1e-9")
        return 1
    return 0


def cmd_reduce_su2(args: argparse.Namespace) -> int:
    kappa = args.kappa
    t_grid = np.linspace(0.0, DEFAULT_T_MAX, 2001)
    _, deviation, solution = spin32_reduction(kappa, t_grid)
    eigenvalues = solution.eigensystem.eigenvalues
    expected = np.array([-3.0, -1.0, 1.0, 3.0]) * kappa
    eig_err = float(np.abs(eigenvalues - expected).max())
    print("eigenvalues: " + " ".join(f"{v:.12g}" for v in eigenvalues))
    print(f"ladder eigenvalue error {eig_err:.3e}, closed-form deviation {deviation:.3e}")
    if eig_err > 1e-12 * min(1.0, 3.0 * kappa) or deviation > 1e-8:
        print("FAIL: spin-3/2 reduction outside tolerance")
        return 1
    return 0


# argparse takes "-1e3" or "-inf" for an unknown option, not a negative number;
# these parsers read every token that starts like a negative float as a value
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="su4rabi",
        description="Exact Rabi dynamics of the six four-level configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check algebra identities and frame reduction")
    p.add_argument("--inject-fault", choices=["scale-lambda1"], help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="integrate one configuration, write a CSV trace")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--config", help="JSON config file; replaces the other flags")
    p.add_argument("--model", choices=[m.value for m in ModelId], help="configuration id")
    p.add_argument("--omega", type=float, nargs=3, default=DEFAULT_OMEGA,
                   metavar=("W1", "W2", "W3"), help="level splittings")
    p.add_argument("--kappa", nargs="+", metavar="AB=V",
                   help="couplings, e.g. 41=0.7 32=0.24; omitted transitions get 0")
    p.add_argument("--field", nargs="+", metavar="AB=V",
                   help="field frequencies per transition (default: resonant)")
    p.add_argument("--resonant", action="store_true",
                   help="drive every transition at its level gap (the default)")
    p.add_argument("--init", default="1",
                   help="start level 1..4, or 8 comma-separated re,im amplitude parts")
    p.add_argument("--t-max", type=float, default=DEFAULT_T_MAX)
    p.add_argument("--steps", type=int, default=DEFAULT_POINTS,
                   help="number of grid points including t=0")
    p.add_argument("--method", choices=["spectral", "rk4"], default="spectral")
    p.add_argument("--allow-nonresonant", action="store_true",
                   help="let the spectral method run off resonance")
    p.add_argument("--show-frame", action="store_true",
                   help="print transition detunings and the static frame matrix")
    p.add_argument("--out", help="output CSV path (default <outdir>/trace.csv)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure", help="write the four standard traces of a figure id")
    p.add_argument("id", type=int, help="figure id, 7..12")
    p.add_argument("--out-dir", help="output directory (default: SU4RABI_OUTDIR or .)")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("symmetry", help="check an inversion partnership")
    p.add_argument("pair", help="one of I:VI, II:V, III, IV")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("reduce-su2", help="spin-3/2 reduction of the ladder configuration")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--kappa", type=float, default=0.24, help="base coupling (default 0.24)")
    p.set_defaults(func=cmd_reduce_su2)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
