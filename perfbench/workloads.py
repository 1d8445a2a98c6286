"""The benchmark's four workloads: their inputs, operations and checks.

Every operation drives su4rabi through its public functions or its command
line. Attributes are looked up on the modules at call time, so a traced run
sees the wrapped bindings. Each operation has an untimed check that returns
None when the output is correct, or the reason it is not.

Tolerances:

* ``RK4_TOL`` (``dual_route``): global RK4 error scales as h^4. Over all
  24 runs on [0, 1] the worst population deviation from the spectral
  route is 7.30e-12 at h = 1e-3, so h = 1e-2 predicts 7.3e-8; 7.25e-8 is
  measured. The bound is three times that. A spectral-route error of the
  size of a wrong eigenvector sign or a missing detuning is 1e-2 or more.
* ``EXACT_TOL`` (``sweep``, ``simulate_csv``): two exact propagations of
  the same frame matrix differ by the eigensolvers' backward error, about
  10 eps ||H|| per unit time, under 1e-12 for these couplings and times.
  CSV values add their %.12e rounding, 5e-13. The bound leaves a factor
  of 1000 over both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import su4rabi as s4
from su4rabi import cli

RK4_TOL = 2.2e-7
EXACT_TOL = 1e-9
OMEGA = (1.0, 2.0, 3.0)
T_MAX = 50.0
# dual_route keeps criterion 5's step h = 1e-2 on a fiftieth of its span,
# so that an operation takes a few milliseconds and a run has many passes
DUAL_T_MAX = 1.0
DUAL_POINTS = 101

# simulate_csv: (model, grid points, initial state); "amplitudes" states
# are drawn from the seed, basis levels are fixed. Sizes come in pairs so
# that the median of a pass falls between two operations of one size. The
# writer's cost per row is the same at any size; these sizes keep an
# operation near 5-15 ms, so that a run has many passes.
SIMULATE_PLAN = (
    ("I", 1001, 1),
    ("II", 1001, "amplitudes"),
    ("III", 2001, 4),
    ("IV", 2001, "amplitudes"),
    ("V", 3001, 2),
    ("VI", 3001, "amplitudes"),
)
SWEEP_DRAWS = 200
SWEEP_POINTS = 101
# cli_suite writes the figures once, untimed: at 0.25 s each they would
# make its passes too long to meet quiet moments of the host (see README.md)
FIGURE_IDS = (7, 8, 9, 10, 11, 12)
FIGURE_POINTS = 5001
CSV_HEADER = "t,p1,p2,p3,p4\n"
CSV_METADATA_LINES = 7  # figure 10 adds an eighth
CHUNK_ROWS = 65536


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    inputs: list  # JSON-able description of every op's input, for the seed tests
    # run once after the measurement, checked but not timed
    untimed: list[Op] = field(default_factory=list)
    # filled by the checks: worst RK4 deviation and every CSV's sha256
    max_dev: float = 0.0
    csv_sha256: dict[str, str] = field(default_factory=dict)


def standard_coupling(model) -> dict:
    return {tr: cli.STANDARD_COUPLINGS[tr] for tr in model.allowed}


def reference_populations(h_rows: np.ndarray, c0_levels: np.ndarray, times) -> np.ndarray:
    """Level-ordered populations of exp(-i H t) c0 from numpy.linalg.eigh.

    ``h_rows`` is a frame matrix in su4rabi's row order (level 4 first);
    the rotating frame is a diagonal unitary, so populations are the same
    in both frames.
    """
    w, v = np.linalg.eigh(h_rows)
    weights = v.T @ np.asarray(c0_levels, dtype=complex)[::-1]
    amps = (np.exp(-1j * np.outer(times, w)) * weights) @ v.T
    return np.abs(amps[:, ::-1]) ** 2


def random_amplitudes(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return z / np.linalg.norm(z)


def call_main(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, returning its exit code and its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def subprocess_env(root: Path, workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["SU4RABI_OUTDIR"] = str(workdir)
    return env


def call_subprocess(argv: list[str], root: Path, workdir: Path) -> tuple[int, str]:
    """Run the ``su4rabi`` command in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "su4rabi.cli", *argv],
        cwd=workdir, env=subprocess_env(root, workdir),
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout + proc.stderr


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_csv(path: Path, points: int, t_max: float, expected=None) -> str | None:
    """Header, row count and time column of a trace CSV; with ``expected``
    (a frame matrix and initial amplitudes) also every population row.
    Rows are parsed in chunks so the check stays small next to the run."""
    with open(path) as fh:
        line = fh.readline()
        meta = 0
        while line.startswith("# "):
            meta, line = meta + 1, fh.readline()
        if meta < CSV_METADATA_LINES or line != CSV_HEADER:
            return f"{path.name}: expected {CSV_METADATA_LINES}+ metadata lines and {CSV_HEADER!r}"
        grid = np.linspace(0.0, t_max, points)
        rows = 0
        while chunk := list(itertools.islice(fh, CHUNK_ROWS)):
            values = np.loadtxt(chunk, delimiter=",", ndmin=2)
            times = grid[rows:rows + len(values)]
            rows += len(values)
            if rows > points or values.shape[1] != 5:
                return f"{path.name}: malformed rows near row {rows}"
            if np.abs(values[:, 0] - times).max() > 1e-11 * max(1.0, t_max):
                return f"{path.name}: time column differs from the grid"
            if expected is not None:
                dev = np.abs(values[:, 1:] - reference_populations(*expected, times)).max()
                if not dev <= EXACT_TOL:
                    return f"{path.name}: populations deviate by {dev:.2e} > {EXACT_TOL:.0e}"
    if rows != points:
        return f"{path.name}: {rows} rows, expected {points}"
    return None


def record_csv(wl: Workload, label: str, path: Path) -> str | None:
    """Record the file's sha256 and require later passes to match it."""
    digest = sha256_of(path)
    path.unlink()
    first = wl.csv_sha256.setdefault(label, digest)
    return None if digest == first else f"{label} bytes differ from the first pass"


# --- dual_route -------------------------------------------------------------

def dual_route(seed: int, root: Path, workdir: Path, in_process: bool) -> Workload:
    grid = np.linspace(0.0, DUAL_T_MAX, DUAL_POINTS)
    wl = Workload([], [])

    def check(result) -> str | None:
        rk4, exact = result
        dev = float(np.abs(rk4.populations - exact.populations).max())
        wl.max_dev = max(wl.max_dev, dev)
        if not dev <= RK4_TOL:
            return f"RK4 deviates from the spectral route by {dev:.2e} > {RK4_TOL:.0e}"
        if not exact.max_norm_error() <= 1e-12:
            return f"spectral norm error {exact.max_norm_error():.2e}"
        return None

    for model in s4.catalog():
        drive = s4.resonant_drive(model, OMEGA, standard_coupling(model))
        for level in (1, 2, 3, 4):
            c0 = s4.StateVector.basis(level)

            def run(model=model, drive=drive, c0=c0):
                rk4, _ = s4.rk4_solve(model, drive, c0, grid)
                return rk4, s4.trace_via_spectral(model, drive, c0, grid)

            wl.ops.append(Op(f"{model.id.value}/{level}", run, check))
            wl.inputs.append([model.id.value, level])
    return wl


# --- simulate_csv -----------------------------------------------------------

def simulate_csv(seed: int, root: Path, workdir: Path, in_process: bool) -> Workload:
    rng = np.random.default_rng(seed)
    wl = Workload([], [])
    for mid, points, init in SIMULATE_PLAN:
        model = s4.get_model(mid)
        coupling = standard_coupling(model)
        if init == "amplitudes":
            amps = random_amplitudes(rng)
            init_arg = ",".join(repr(float(x)) for a in amps for x in (a.real, a.imag))
        else:
            amps = s4.StateVector.basis(init).amplitudes
            init_arg = str(init)
        label = f"{mid}-{points}"
        path = workdir / f"{label}.csv"
        argv = ["simulate", "--model", mid,
                "--kappa", *(f"{a}{b}={k}" for (a, b), k in sorted(coupling.items(), reverse=True)),
                f"--init={init_arg}", "--t-max", str(T_MAX), "--steps", str(points),
                "--method", "spectral", "--out", str(path)]

        def check(result, model=model, coupling=coupling, amps=amps, label=label,
                  path=path, points=points) -> str | None:
            code, out = result
            if code != 0 or f"wrote {path} ({points} rows" not in out:
                return f"exit {code}: {out.strip()[-200:]}"
            if label in wl.csv_sha256:  # the same bytes as the checked first pass
                return record_csv(wl, label, path)
            h = s4.rotate(model, s4.resonant_drive(model, OMEGA, coupling)).h_tilde
            return check_csv(path, points, T_MAX, (h, amps)) or record_csv(wl, label, path)

        wl.ops.append(Op(label, lambda argv=argv: call_main(argv), check))
        wl.inputs.append(argv)
    return wl


# --- sweep ------------------------------------------------------------------

def sweep_draws(seed: int, n: int = SWEEP_DRAWS) -> list[dict]:
    """Random configurations on the catalog's scales: splittings 0.5-3,
    couplings 0.05-1 (the standard set spans 0.24-0.7), every transition
    detuned by up to +-0.5, durations 5-50, and half of the initial states
    random superpositions. No draw is dropped, whatever its outcome. Each
    property is drawn for all configurations at once, which keeps the
    benchmark's own share of ``setup_s`` small."""
    rng = np.random.default_rng(seed)
    models = s4.catalog()
    picks = rng.integers(len(models), size=n)
    omegas = rng.uniform(0.5, 3.0, (n, 3))
    kappas = rng.uniform(0.05, 1.0, (n, 3))  # every model has three transitions
    detunings = rng.uniform(-0.5, 0.5, (n, 3))
    t_maxes = rng.uniform(5.0, 50.0, n)
    basis = rng.random(n) < 0.5
    levels = rng.integers(1, 5, n)
    z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    superpositions = z / np.linalg.norm(z, axis=1, keepdims=True)
    draws = []
    for i in range(n):
        model = models[picks[i]]
        omega = tuple(omegas[i].tolist())
        energies = model.energies(omega)
        transitions = model.sorted_transitions()
        coupling = dict(zip(transitions, kappas[i].tolist()))
        field_freq = {(a, b): float(energies[a - 1] - energies[b - 1] - d)
                      for (a, b), d in zip(transitions, detunings[i])}
        amps = (s4.StateVector.basis(int(levels[i])).amplitudes if basis[i]
                else superpositions[i])
        draws.append({"model": model.id.value, "omega": omega, "coupling": coupling,
                      "field_freq": field_freq, "t_max": float(t_maxes[i]), "amplitudes": amps})
    return draws


def sweep(seed: int, root: Path, workdir: Path, in_process: bool) -> Workload:
    wl = Workload([], [])

    def check(result, model, drive, c0) -> str | None:
        h = s4.rotate(model, drive).h_tilde
        ref = reference_populations(h, c0.amplitudes, result.times)
        dev = float(np.abs(result.populations - ref).max())
        return None if dev <= EXACT_TOL else f"deviates from eigh by {dev:.2e}"

    for i, d in enumerate(sweep_draws(seed)):
        model = s4.get_model(d["model"])
        drive = s4.DriveParams(omega=d["omega"], field_freq=d["field_freq"], coupling=d["coupling"])
        c0 = s4.StateVector(d["amplitudes"])
        grid = np.linspace(0.0, d["t_max"], SWEEP_POINTS)

        def run(model=model, drive=drive, c0=c0, grid=grid):
            return s4.trace_via_spectral(model, drive, c0, grid, allow_nonresonant=True)

        wl.ops.append(Op(f"draw{i}", run,
                         lambda r, model=model, drive=drive, c0=c0: check(r, model, drive, c0)))
        wl.inputs.append(d)
    return wl


# --- cli_suite --------------------------------------------------------------

LINE_CHECKS = {
    "verify": re.compile(r"^summary: 15 generators, 6 models, max residual \S+ \(pass\)$", re.M),
    "symmetry": re.compile(r"^inversion \w+ -> \w+: max population deviation \S+", re.M),
    "reduce-su2": re.compile(r"^ladder eigenvalue error \S+, closed-form deviation \S+$", re.M),
}


def cli_ops(wl: Workload, argvs: list[list[str]], call) -> list[Op]:
    ops = []
    for argv in argvs:
        label = " ".join(argv[:2])

        def check(result, argv=argv) -> str | None:
            code, out = result
            if code != 0 or "FAIL" in out:
                return f"exit {code}: {out.strip()[-200:]}"
            if argv[0] == "figure":
                out_dir = Path(argv[3])
                for case in "abcd":
                    path = out_dir / f"fig{argv[1]}{case}.csv"
                    if str(path) not in out:
                        return f"{path.name} not reported"
                    problem = (check_csv(path, FIGURE_POINTS, T_MAX)
                               or record_csv(wl, path.name, path))
                    if problem:
                        return problem
                return None
            if not LINE_CHECKS[argv[0]].search(out):
                return "expected summary line missing"
            return None

        ops.append(Op(label, lambda argv=argv: call(argv), check))
    return ops


def cli_suite(seed: int, root: Path, workdir: Path, in_process: bool) -> Workload:
    argvs = [["verify"]]
    argvs += [["symmetry", pair] for pair in ("I:VI", "II:V", "III", "IV")]
    argvs += [["reduce-su2"]]
    wl = Workload([], argvs)
    call = call_main if in_process else (lambda argv: call_subprocess(argv, root, workdir))
    wl.ops = cli_ops(wl, argvs, call)
    figures = [["figure", str(i), "--out-dir", str(workdir / f"fig{i}")] for i in FIGURE_IDS]
    wl.untimed = cli_ops(wl, figures, call_main)
    return wl


BUILDERS = {"dual_route": dual_route, "simulate_csv": simulate_csv,
            "sweep": sweep, "cli_suite": cli_suite}


def build(name: str, seed: int, root: Path, workdir: Path, in_process: bool = True) -> Workload:
    """The workload's inputs and operations. Only ``cli_suite`` differs out
    of process: its commands then run as ``su4rabi`` subprocesses, which the
    traced run uses once to measure the process overhead."""
    return BUILDERS[name](seed, root, workdir, in_process)
