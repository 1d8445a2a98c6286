"""Benchmark for su4rabi: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file. It runs as many whole passes over the workload's
fixed input set as end within half a pass of ``--seconds``, judging by the
last pass, and at least one. Each operation counts with its best time over
the passes, and ``setup_s`` with the best of several fresh interpreters
spread over the run. Every operation's output is checked, untimed. The
last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same metrics with units, ``failed_frac``, the run
environment, and the sha256 of every CSV written.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15


@dataclass
class Sample:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passes: int = 0

    def ops_per_s(self) -> float:
        """Operations per second of each operation's best time."""
        best_s = best_per_op(np.array(self.latencies), self.passes)
        return len(best_s) / best_s.sum()


def run_pass(wl, sample: Sample, tracer=None) -> None:
    """Run every operation once, timing the operation and not its check."""
    for op in wl.ops:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.recording():
                    result = op.run()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            sample.latencies.append(time.perf_counter() - start)
            sample.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        sample.latencies.append(time.perf_counter() - start)
        try:
            problem = op.check(result)
        except Exception as exc:  # a check that cannot read the output fails it
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            sample.failures.append(f"{op.label}: {problem}")
    sample.passes += 1


def best_per_op(lat_ms: np.ndarray, passes: int) -> np.ndarray:
    """Each operation's fastest time over the passes, in the workload's order.

    The host's cores are shared: other tenants' load makes everything up to
    1.8 times slower for seconds at a time. The load only ever adds time,
    and over many short passes an operation meets quiet moments, so its
    best time is what the code costs (see README.md)."""
    return lat_ms.reshape(passes, -1).min(axis=0)


def passes_within(seconds: float, minimum: int = 1):
    """Yield pass numbers while one more pass, as long as the last one,
    would be at least half done after ``seconds``; yield at least
    ``minimum``. A run then ends within half a pass of ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        begin = time.perf_counter()
        yield n
        n += 1
        end = time.perf_counter()
        if n >= minimum and end - start + (end - begin) / 2 > seconds:
            return


class SetupTimer:
    """Times fresh interpreters that import the package, build this
    workload's inputs and exit. The launches are spread over the run, so
    that a busy spell of the host at its start cannot hold them all, and
    ``setup_s`` is the best of them (see README.md)."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.seconds = args.seconds
        self.start = time.perf_counter()
        self.times: list[float] = []

    def launch(self) -> None:
        start = time.perf_counter()
        # with a pipe, run() waits for end of file and then reaps the child at
        # once; without one it polls for the exit in steps of up to 50 ms
        subprocess.run(self.cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
        self.times.append(time.perf_counter() - start)

    def launch_due(self) -> None:
        """Launch the ones whose share of the run has begun."""
        elapsed = time.perf_counter() - self.start
        while (len(self.times) < SETUP_REPEATS
               and len(self.times) * self.seconds / SETUP_REPEATS <= elapsed):
            self.launch()

    def best(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.launch()
        return min(self.times)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package sources, which identifies the code where the
    checkout has no git metadata."""
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "su4rabi"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".pyx")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import su4rabi

    compiled = getattr(su4rabi, "USING_COMPILED", None)
    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "rk4_code_path": {True: "compiled", False: "pure-numpy"}.get(compiled, "unflagged"),
    }


def end_to_end(args, wl) -> tuple[dict, Sample]:
    setup = SetupTimer(args)
    sample = Sample()
    for _ in passes_within(args.seconds):
        setup.launch_due()
        run_pass(wl, sample)
    setup_s = setup.best()
    lat_ms = np.array(sample.latencies) * 1e3
    best_ms = best_per_op(lat_ms, sample.passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sample.ops_per_s(), "1/s"),
        "op_ms.p50": (float(np.median(best_ms)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = float(np.percentile(best_ms, 90))
    print(f"samples {lat_ms.size} in {sample.passes} passes of {len(wl.ops)} ops;"
          f" latency metrics use each op's best of {sample.passes};"
          f" all samples: p50 {np.median(lat_ms):.4g} ms, p90 {np.percentile(lat_ms, 90):.4g} ms")
    # reported, not a metric: few workloads have ten operations beyond it
    print(f"op_ms.p90 = {p90:.6g} ms ({int((best_ms > p90).sum())} of {best_ms.size} ops beyond)")
    print(f"setup launches (s): {' '.join(f'{t:.3f}' for t in setup.times)}")
    return metrics, sample


def per_layer(args, wl, workdir: Path) -> tuple[dict, Sample]:
    import workloads

    tracer = tracing.Tracer()
    targets = list(tracing.TARGETS)
    core = tracing.rk4_core_target()
    if core is not None:
        targets.append(core)

    attempted = Sample()
    subprocess_walls: list[float] = []
    if args.workload == "cli_suite":
        # the same commands once as subprocesses, for the process overhead
        run_pass(workloads.build(args.workload, args.seed, ROOT, workdir, in_process=False),
                 attempted)
        subprocess_walls = list(attempted.latencies)

    untraced, traced = Sample(), Sample()
    for n in passes_within(args.seconds, minimum=2):
        if n % 2 == 0:
            run_pass(wl, untraced)
        else:
            with tracer.installed(targets):
                run_pass(wl, traced, tracer)
    for s in (untraced, traced):
        attempted.latencies += s.latencies
        attempted.failures += s.failures

    spans = tracing.summarize(tracer.spans)

    def per_pass(span: str, key: str = "busy_s") -> float:
        return spans.get(span, {}).get(key, 0.0) / traced.passes

    def work(span: str, what: str) -> float:
        return tracer.counters[f"{span}.{what}"] / traced.passes

    def rate(span: str, what: str) -> float:
        busy = per_pass(span)
        return work(span, what) / busy if busy > 0 else 0.0

    residual = max((float(np.linalg.norm(es.diagonalizer @ np.asarray(h) @ es.diagonalizer.T
                                         - np.diag(es.eigenvalues)))
                    for h, es in tracer.eigensystems), default=0.0)
    overhead = 0.0
    if subprocess_walls and per_pass("cli.main", "calls"):
        main_s = per_pass("cli.main") / per_pass("cli.main", "calls")
        overhead = statistics.mean(subprocess_walls) - main_s
    s, c, r, one = "s", "count", "1/s", "1"
    metrics = {
        "dynamics.rk4_solve.busy_s": (per_pass("dynamics.rk4_solve"), s),
        "dynamics.rk4_solve.calls": (per_pass("dynamics.rk4_solve", "calls"), c),
        "dynamics.rk4_solve.steps_per_s": (rate("dynamics.rk4_solve", "steps"), r),
        "dynamics.rk4_core.busy_s": (per_pass("dynamics.rk4_core"), s),
        "dynamics.rk4_solve.max_dev": (wl.max_dev, one),
        "dynamics.trace_via_spectral.busy_s": (per_pass("dynamics.trace_via_spectral"), s),
        "dynamics.trace_via_spectral.self_s": (
            per_pass("dynamics.trace_via_spectral", "self_s"), s),
        "dynamics.trace_via_spectral.calls": (
            per_pass("dynamics.trace_via_spectral", "calls"), c),
        "dynamics.trace_via_spectral.points_per_s": (
            rate("dynamics.trace_via_spectral", "points"), r),
        "cli.write_trace_csv.busy_s": (per_pass("cli.write_trace_csv"), s),
        "cli.write_trace_csv.rows": (work("cli.write_trace_csv", "rows"), c),
        "cli.write_trace_csv.bytes": (work("cli.write_trace_csv", "bytes"), "B"),
        "cli.write_trace_csv.rows_per_s": (rate("cli.write_trace_csv", "rows"), r),
        "spectral.jacobi_eigh.busy_s": (per_pass("spectral.jacobi_eigh"), s),
        "spectral.jacobi_eigh.calls": (per_pass("spectral.jacobi_eigh", "calls"), c),
        "spectral.jacobi_eigh.residual_max": (residual, one),
        "frame.rotate.busy_s": (per_pass("frame.rotate"), s),
        "frame.rotate.calls": (per_pass("frame.rotate", "calls"), c),
        "frame.check_time_independence.busy_s": (per_pass("frame.check_time_independence"), s),
        "models.hamiltonian_t.busy_s": (per_pass("models.hamiltonian_t"), s),
        "models.hamiltonian_t.calls": (per_pass("models.hamiltonian_t", "calls"), c),
        "algebra.verify.busy_s": (sum(per_pass(f"algebra.{n}") for n in (
            "build_generators", "structure_constants", "verify_algebra")), s),
        "symmetry.check_inversion.busy_s": (per_pass("symmetry.check_inversion"), s),
        "symmetry.spin32_reduction.busy_s": (per_pass("symmetry.spin32_reduction"), s),
        "cli.main.self_s": (per_pass("cli.main", "self_s"), s),
        "cli.process_overhead_s": (overhead, s),
        "trace.untraced_ops_per_s": (untraced.ops_per_s(), r),
        "trace.ops_per_s": (traced.ops_per_s(), r),
        "trace.overhead_ops_per_s": (traced.ops_per_s() - untraced.ops_per_s(), r),
    }
    print(f"traced {traced.passes} and untraced {untraced.passes} passes of {len(wl.ops)} ops;"
          f" {len(tracer.spans)} spans")
    return metrics, attempted


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="dual_route, simulate_csv, sweep or cli_suite")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "su4rabi" / "__init__.py").is_file():
        print(f"perfbench: no su4rabi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import su4rabi.cli  # noqa: F401  (setup_s includes the CLI import)

    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        workloads.build(args.workload, args.seed, ROOT, workdir)
        return 0

    workdir.mkdir(parents=True)
    try:
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
              f" trace={args.trace}")
        print("env " + json.dumps(environment(), sort_keys=True))
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        if args.trace:
            metrics, sample = per_layer(args, wl, workdir)
        else:
            metrics, sample = end_to_end(args, wl)
        # outputs kept out of the timing: checked, and their CSVs hashed
        once = Sample()
        run_pass(workloads.Workload(wl.untimed, []), once)
        sample.latencies += once.latencies
        sample.failures += once.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = len(sample.latencies), len(sample.failures)
    for line in sample.failures[:10]:
        print(f"failed {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if wl.csv_sha256:
        print("csv_sha256 " + json.dumps(wl.csv_sha256, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
