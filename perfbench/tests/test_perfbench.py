"""Self-tests of the benchmark: seeded inputs, failure counting, span
arithmetic and the tracer's patching. Run with

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import run
import su4rabi
import tracing
import workloads
from su4rabi import cli, dynamics, spectral


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = workloads.build(name, 7, run.ROOT, tmp_path)
    second = workloads.build(name, 7, run.ROOT, tmp_path)
    assert len(first.ops) == len(first.inputs) > 0
    np.testing.assert_equal(first.inputs, second.inputs)


def test_other_seed_gives_other_sweep_draws():
    a, b = workloads.sweep_draws(1, 50), workloads.sweep_draws(2, 50)
    assert [d["t_max"] for d in a] != [d["t_max"] for d in b]
    assert sum(x["model"] != y["model"] for x, y in zip(a, b)) > 0


def test_other_seed_gives_other_simulate_amplitudes(tmp_path):
    a = workloads.build("simulate_csv", 1, run.ROOT, tmp_path).inputs
    b = workloads.build("simulate_csv", 2, run.ROOT, tmp_path).inputs
    assert a != b


def test_failing_operation_is_counted_as_failed(tmp_path):
    wl = workloads.Workload([], [])
    call = lambda argv: workloads.call_subprocess(argv, run.ROOT, tmp_path)  # noqa: E731
    wl.ops = workloads.cli_ops(wl, [["verify", "--inject-fault", "scale-lambda1"], ["verify"]], call)
    sample = run.Sample()
    run.run_pass(wl, sample)
    assert len(sample.latencies) == 2
    assert len(sample.failures) == 1
    assert sample.failures[0].startswith("verify --inject-fault: exit 1")


def test_raising_operation_is_counted_as_failed():
    def boom():
        raise RuntimeError("boom")

    wl = workloads.Workload([workloads.Op("boom", boom, lambda r: None)], [])
    sample = run.Sample()
    run.run_pass(wl, sample)
    assert sample.failures == ["boom: RuntimeError: boom"]


def test_latency_metrics_use_each_operations_best_pass():
    # three passes of two operations, in run order
    latencies = [3.0, 10.0, 1.0, 12.0, 2.0, 11.0]
    np.testing.assert_equal(run.best_per_op(np.array(latencies), 3), [1.0, 10.0])
    assert run.Sample(latencies=latencies, passes=3).ops_per_s() == 2 / 11.0


def test_self_time_subtracts_direct_children_only():
    #  root [0, 10]
    #    a [1, 4]      (self 3 - 1 = 2)
    #      b [2, 3]    (self 1)
    #    c [5, 9]      (self 4)
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0], ["a", 11.0, 12.0, -1]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = tracing.summarize(spans)
    assert totals["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert totals["root"]["self_s"] == 3.0


def test_tracer_wraps_every_binding_and_restores_them():
    original = spectral.jacobi_eigh
    tracer = tracing.Tracer()
    target = tracing.Target("su4rabi.spectral", "jacobi_eigh", "spectral.jacobi_eigh")
    with tracer.installed([target]):
        for module in (su4rabi, spectral, dynamics, cli):
            assert module.jacobi_eigh is not original
            assert module.jacobi_eigh.__wrapped__ is original
        spectral.jacobi_eigh(np.eye(4))  # inactive: no span
        with tracer.recording():
            cli.jacobi_eigh(np.eye(4))
    assert [s[0] for s in tracer.spans] == ["spectral.jacobi_eigh"]
    for module in (su4rabi, spectral, dynamics, cli):
        assert module.jacobi_eigh is original


def test_reference_propagation_matches_spectral_trace():
    draw = workloads.sweep_draws(3, 1)[0]
    model = su4rabi.get_model(draw["model"])
    drive = su4rabi.DriveParams(draw["omega"], draw["field_freq"], draw["coupling"])
    c0 = su4rabi.StateVector(draw["amplitudes"])
    grid = np.linspace(0.0, draw["t_max"], 11)
    trace = su4rabi.trace_via_spectral(model, drive, c0, grid, allow_nonresonant=True)
    ref = workloads.reference_populations(su4rabi.rotate(model, drive).h_tilde, c0.amplitudes, grid)
    assert np.abs(trace.populations - ref).max() < workloads.EXACT_TOL
