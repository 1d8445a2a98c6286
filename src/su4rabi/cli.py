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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra
from .dynamics import rk4_solve, solve_frame, trace_via_spectral
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


def _parse_assignments(tokens: list[str], what: str) -> dict[Transition, float]:
    out: dict[Transition, float] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ConfigurationError(f"bad {what} entry {token!r}; expected KEY=VALUE")
        try:
            out[parse_transition_key(key)] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad {what} value in {token!r}") from exc
    return out


@dataclass
class RunConfig:
    """One simulate run; serializes to/from the JSON config format."""

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
        if not math.isfinite(self.t_max):
            raise ConfigurationError(f"t_max must be finite, got {self.t_max}")
        if self.t_max < 0:
            raise ConfigurationError("t_max must be non-negative")
        if self.t_max == 0 and self.steps > 1:
            raise ConfigurationError("t_max = 0 allows only a single grid point")

    def to_json_dict(self) -> dict:
        data: dict = {
            "model": self.model.value,
            "omega": list(self.omega),
            "kappas": {transition_key(tr): v for tr, v in sorted(self.kappas.items(), reverse=True)},
            "init": self.init if isinstance(self.init, int) else [list(p) for p in self.init],
            "t_max": self.t_max,
            "steps": self.steps,
            "method": self.method,
        }
        if self.fields is None:
            data["resonant"] = True
        else:
            data["fields"] = {
                transition_key(tr): v for tr, v in sorted(self.fields.items(), reverse=True)
            }
        return data

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
        try:
            omega = tuple(float(x) for x in data.get("omega", DEFAULT_OMEGA))
            if len(omega) != 3:
                raise ConfigurationError("omega must hold exactly three values")
            kappas = {parse_transition_key(k): float(v) for k, v in data.get("kappas", {}).items()}
            if data.get("resonant") and "fields" in data:
                raise ConfigurationError("config sets both 'resonant' and 'fields'")
            fields = None
            if "fields" in data:
                fields = {parse_transition_key(k): float(v) for k, v in data["fields"].items()}
            init_raw = data.get("init", 1)
            init: int | tuple[tuple[float, float], ...]
            if isinstance(init_raw, int) and not isinstance(init_raw, bool):
                init = init_raw
            else:
                if len(init_raw) != 4:
                    raise ConfigurationError("amplitude init must list four [re, im] pairs")
                init = tuple((float(p[0]), float(p[1])) for p in init_raw)
            t_max = float(data.get("t_max", DEFAULT_T_MAX))
        except ConfigurationError:
            raise
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed config value: {exc}") from exc
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
        if init not in (1, 2, 3, 4):
            raise ConfigurationError(f"init level {init} outside 1..4")
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


def run_trace(cfg: RunConfig, allow_nonresonant: bool = False) -> PopulationTrace:
    model = get_model(cfg.model)
    drive = build_drive(cfg)
    state = initial_state(cfg.init)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps)
    if cfg.method == "rk4":
        trace, _ = rk4_solve(model, drive, state, t_grid)
        return trace
    return trace_via_spectral(model, drive, state, t_grid, allow_nonresonant)


def trace_metadata(cfg: RunConfig) -> list[tuple[str, str]]:
    meta = [
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
    return meta


# One CSV row: t, p1..p4. printf's %e and format()'s .12e share one
# float-to-string routine, so the bytes match a per-value f-string.
_CSV_ROW = ",".join(["%.12e"] * 5) + "\n"
# Rows formatted by one printf call; bounds memory on long grids.
_CSV_BLOCK = 4096


def write_trace_csv(
    path: str, trace: PopulationTrace, metadata: list[tuple[str, str]]
) -> None:
    with open(path, "w", newline="\n") as fh:
        for key, value in metadata:
            fh.write(f"# {key} = {value}\n")
        fh.write("t,p1,p2,p3,p4\n")
        for start in range(0, trace.times.size, _CSV_BLOCK):
            stop = start + _CSV_BLOCK
            block = np.column_stack(
                (trace.times[start:stop], trace.populations[start:stop])
            )
            fh.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))


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
        cfg = RunConfig.from_json_dict(data)
    else:
        if args.model is None:
            raise ConfigurationError("either --config or --model is required")
        if args.resonant and args.field:
            raise ConfigurationError("--resonant and --field are mutually exclusive")
        init: int | tuple[tuple[float, float], ...]
        if "," in args.init:
            try:
                parts = [float(x) for x in args.init.split(",")]
            except ValueError as exc:
                raise ConfigurationError(f"bad --init value {args.init!r}") from exc
            if len(parts) != 8:
                raise ConfigurationError(
                    "--init amplitudes need 8 comma-separated numbers (re,im x 4)"
                )
            init = tuple((parts[2 * i], parts[2 * i + 1]) for i in range(4))
        else:
            try:
                init = int(args.init)
            except ValueError as exc:
                raise ConfigurationError(f"bad --init value {args.init!r}") from exc
        try:
            model_id = ModelId(args.model)
        except ValueError as exc:
            raise ConfigurationError(f"unknown model {args.model!r}") from exc
        cfg = RunConfig(
            model=model_id,
            omega=tuple(args.omega),  # type: ignore[arg-type]
            kappas=_parse_assignments(args.kappa or [], "--kappa"),
            fields=_parse_assignments(args.field, "--field") if args.field else None,
            init=init,
            t_max=args.t_max,
            steps=args.steps,
            method=args.method,
        )
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
    write_trace_csv(out, trace, trace_metadata(cfg))
    print(f"wrote {out} ({trace.times.size} rows, max norm error {trace.max_norm_error():.3e})")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.id not in FIGURE_MODELS:
        raise ConfigurationError(f"figure id {args.id} outside 7..12")
    model = get_model(FIGURE_MODELS[args.id])
    out_dir = args.out_dir or default_outdir()
    os.makedirs(out_dir, exist_ok=True)
    kappas = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
    cfg = RunConfig(model=model.id, kappas=kappas)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps)
    # the four start levels share one drive and grid: solve once, evaluate together
    amplitudes = solve_frame(model, build_drive(cfg)).amplitudes(
        [StateVector.basis(level) for level in LEVELS], t_grid
    )
    written = []
    for level, amps in zip(LEVELS, amplitudes):
        trace = PopulationTrace(times=t_grid, populations=np.abs(amps) ** 2)
        meta = trace_metadata(replace(cfg, init=level))
        if args.id == 10:
            # the paper figure's label; the run itself is resonant
            meta.append(("omega_field", "0.4 0.4 0.4"))
        path = os.path.join(out_dir, f"fig{args.id}{CASE_SUFFIX[level]}.csv")
        write_trace_csv(path, trace, meta)
        written.append(path)
    print(f"wrote {', '.join(written)}")
    return 0


def cmd_symmetry(args: argparse.Namespace) -> int:
    if args.pair not in SYMMETRY_PAIRS:
        raise ConfigurationError(
            f"unknown pair {args.pair!r}; choose from {sorted(SYMMETRY_PAIRS)}"
        )
    source = get_model(SYMMETRY_PAIRS[args.pair])
    partner = inversion_partner(source.id).target
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su4rabi",
        description="Exact Rabi dynamics of the six four-level configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check algebra identities and frame reduction")
    p.add_argument("--inject-fault", choices=["scale-lambda1"], help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="integrate one configuration, write a CSV trace")
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
    p.add_argument("--kappa", type=float, default=0.24, help="base coupling (default 0.24)")
    p.set_defaults(func=cmd_reduce_su2)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; building it costs far more than a parse."""
    return build_parser()


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
