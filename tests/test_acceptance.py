"""Acceptance gate: ten numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the usual test outcome. Every criterion states its
tolerance inline; the assertions use exactly those numbers.
"""

import math
import time

import numpy as np
import pytest

from su4rabi import algebra
from su4rabi.cli import STANDARD_COUPLINGS, main
from su4rabi.dynamics import rk4_solve, trace_via_spectral
from su4rabi.frame import check_time_independence, resonant_drive, rotate
from su4rabi.models import (
    DriveParams,
    StateVector,
    catalog,
    get_model,
    row_of,
)
from su4rabi.spectral import compose_rotations, factor_orthogonal, jacobi_eigh
from su4rabi.symmetry import (
    check_inversion,
    spin32_closed_form,
    spin32_couplings,
    spin32_frame_matrix,
)

OMEGA = (1.0, 2.0, 3.0)


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{tail}")
    return ok


def standard_drive(model):
    coupling = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
    return resonant_drive(model, OMEGA, coupling)


@pytest.fixture(scope="module")
def dual_route_runs():
    """The heavy workload shared by criteria 5 and 6.

    All six configurations, the standard coupling set, all four basis
    initial states, t in [0, 50] at step 1e-3, integrated by RK4 and
    evaluated spectrally on the same grid.
    """
    grid = np.linspace(0.0, 50.0, 50001)
    runs = []
    start = time.perf_counter()
    for model in catalog():
        drive = standard_drive(model)
        for level in (1, 2, 3, 4):
            c0 = StateVector.basis(level)
            rk4_trace, _ = rk4_solve(model, drive, c0, grid)
            exact = trace_via_spectral(model, drive, c0, grid)
            runs.append((model.id.value, level, rk4_trace, exact))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_algebra_identities():
    start = time.perf_counter()
    gens = algebra.build_generators()
    consts = algebra.structure_constants(gens)
    result = algebra.verify_algebra(gens, consts)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.max_residual < 1e-12 and elapsed < 1.0
    assert report(
        1,
        "algebra identities",
        ok,
        f"max residual {result.max_residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_shift_operator_realization():
    gens = algebra.build_generators()
    ops = algebra.build_shift_operators(gens)
    ladders_exact = True
    for name, (a, b) in algebra.TRANSITION_OF_LADDER.items():
        unit = np.zeros((4, 4), dtype=complex)
        unit[row_of(a), row_of(b)] = 1.0
        ladders_exact = ladders_exact and np.array_equal(ops.plus[name], unit)
    worst_diag = 0.0
    for name, (a, b) in algebra.TRANSITION_OF_LADDER.items():
        projector_diff = np.zeros((4, 4))
        projector_diff[row_of(a), row_of(a)] = 1.0
        projector_diff[row_of(b), row_of(b)] = -1.0
        diag_name = name + "3"
        worst_diag = max(
            worst_diag, float(np.abs(ops.diagonal[diag_name] - projector_diff).max())
        )
    ok = ladders_exact and worst_diag < 1e-15
    assert report(
        2,
        "shift-operator realization",
        ok,
        f"ladders exact={ladders_exact}, diagonal dev {worst_diag:.2e}",
    )


def test_criterion_03_operator_matrix_equivalence():
    from su4rabi.models import hamiltonian_shift_form, hamiltonian_t

    ops = algebra.build_shift_operators(algebra.build_generators())
    rng = np.random.default_rng(412)
    worst = 0.0
    for model in catalog():
        for _ in range(100):
            omega = tuple(rng.uniform(0.5, 3.0, 3))
            coupling = {tr: float(rng.uniform(0.0, 1.0)) for tr in model.allowed}
            fields = {tr: float(rng.uniform(0.5, 5.0)) for tr in model.allowed}
            drive = DriveParams(omega=omega, field_freq=fields, coupling=coupling)
            t = float(rng.uniform(0.0, 20.0))
            diff = hamiltonian_t(model, drive, t) - hamiltonian_shift_form(
                model, drive, t, ops
            )
            worst = max(worst, float(np.abs(diff).max()))
    ok = worst < 1e-14
    assert report(3, "operator/matrix equivalence", ok, f"max residual {worst:.2e}")


def test_criterion_04_frame_time_independence():
    sample_times = (0.0, 0.7, 1.3, 2.9, 4.1)
    omega = (1.0, math.sqrt(2.0), math.pi / 3.0)
    worst_drift = 0.0
    worst_res_diag = 0.0
    worst_trace = 0.0
    for model in catalog():
        coupling = {tr: STANDARD_COUPLINGS[tr] for tr in model.allowed}
        base = resonant_drive(model, omega, coupling)
        offsets = {
            tr: 0.1 * (i + 1) for i, tr in enumerate(model.sorted_transitions())
        }
        detuned = DriveParams(
            omega=omega,
            field_freq={tr: base.field_freq[tr] + offsets[tr] for tr in model.allowed},
            coupling=coupling,
        )
        worst_drift = max(
            worst_drift, check_time_independence(model, detuned, sample_times)
        )
        fr_res = rotate(model, base)
        worst_res_diag = max(worst_res_diag, float(np.abs(np.diag(fr_res.h_tilde)).max()))
        worst_trace = max(
            worst_trace,
            abs(float(fr_res.diag_detunings.sum())),
            abs(float(rotate(model, detuned).diag_detunings.sum())),
        )

    # chain configuration: per-level detunings are fixed combinations of
    # the three transition detunings
    model_i = get_model("I")
    drive_i = DriveParams(
        omega=(0.9, 1.7, 0.3),
        field_freq={(4, 1): 2.1, (3, 2): 1.4, (2, 1): 0.6},
        coupling={tr: STANDARD_COUPLINGS[tr] for tr in model_i.allowed},
    )
    fr = rotate(model_i, drive_i)
    d21, d32, d41 = (fr.detunings[tr] for tr in ((2, 1), (3, 2), (4, 1)))
    expected = np.array(
        [
            -(2 * d21 + d32 + d41) / 4.0,
            (2 * d21 - d32 - d41) / 4.0,
            (2 * d21 + 3 * d32 - d41) / 4.0,
            (-2 * d21 - d32 + 3 * d41) / 4.0,
        ]
    )
    combo_dev = float(np.abs(fr.diag_detunings - expected).max())

    ok = (
        worst_drift < 1e-12
        and worst_res_diag < 1e-13
        and worst_trace < 1e-13
        and combo_dev < 1e-13
    )
    assert report(
        4,
        "rotating-frame time independence",
        ok,
        f"drift {worst_drift:.2e}, resonant diag {worst_res_diag:.2e},"
        f" detuning sum {worst_trace:.2e}, chain combo {combo_dev:.2e}",
    )


def test_criterion_05_dual_route_agreement(dual_route_runs):
    runs, elapsed = dual_route_runs
    worst = 0.0
    for _, _, rk4_trace, exact in runs:
        worst = max(
            worst, float(np.abs(rk4_trace.populations - exact.populations).max())
        )
    ok = worst < 1e-6 and len(runs) == 24 and elapsed < 30.0
    assert report(
        5,
        "spectral vs RK4 agreement",
        ok,
        f"max deviation {worst:.2e} over 24 runs, {elapsed:.1f}s",
    )


def test_criterion_06_norm_conservation(dual_route_runs):
    runs, _ = dual_route_runs
    worst_spectral = max(float(e.max_norm_error()) for _, _, _, e in runs)
    worst_rk4 = max(float(r.max_norm_error()) for _, _, r, _ in runs)
    ok = worst_spectral < 1e-12 and worst_rk4 < 1e-9
    assert report(
        6,
        "norm conservation",
        ok,
        f"spectral {worst_spectral:.2e}, rk4 {worst_rk4:.2e}",
    )


def test_criterion_07_inversion_symmetry():
    grid = np.linspace(0.0, 50.0, 2001)
    worst = 0.0
    for mid in ("I", "II", "III", "IV"):
        model = get_model(mid)
        drive = standard_drive(model)
        worst = max(worst, check_inversion(mid, drive, grid))
    ok = worst < 1e-9
    assert report(7, "inversion symmetry", ok, f"max deviation {worst:.2e}")


def test_criterion_08_spin_reduction():
    kappa = 0.24
    eigenvalues = jacobi_eigh(spin32_frame_matrix(kappa)).eigenvalues
    eig_err = float(
        np.abs(eigenvalues - np.array([-0.72, -0.24, 0.24, 0.72])).max()
    )
    model = get_model("III")
    drive = resonant_drive(model, OMEGA, spin32_couplings(kappa))
    grid = np.linspace(0.0, 50.0, 5001)
    trace = trace_via_spectral(model, drive, StateVector.basis(4), grid)
    pop_dev = float(np.abs(trace.populations - spin32_closed_form(kappa, grid)).max())
    ok = eig_err < 1e-12 and pop_dev < 1e-8
    assert report(
        8,
        "spin-3/2 reduction",
        ok,
        f"eigenvalue error {eig_err:.2e}, population deviation {pop_dev:.2e}",
    )


def test_criterion_09_orthogonal_factorization():
    rng = np.random.default_rng(907)
    worst_round_trip = 0.0
    for _ in range(1000):
        angles = rng.uniform(-np.pi, np.pi, 6)
        rotation = compose_rotations(angles)
        rebuilt = compose_rotations(factor_orthogonal(rotation))
        worst_round_trip = max(
            worst_round_trip, float(np.abs(rotation - rebuilt).max())
        )
    worst_ortho = 0.0
    worst_recon = 0.0
    for _ in range(1000):
        a = rng.uniform(-3.0, 3.0, (4, 4))
        a = (a + a.T) / 2.0
        es = jacobi_eigh(a)
        t = es.diagonalizer
        worst_ortho = max(worst_ortho, float(np.abs(t @ t.T - np.eye(4)).max()))
        worst_recon = max(
            worst_recon,
            float(np.abs(t.T @ np.diag(es.eigenvalues) @ t - a).max()),
        )
    ok = worst_round_trip < 1e-10 and worst_ortho < 1e-12 and worst_recon < 1e-12
    assert report(
        9,
        "orthogonal factorization",
        ok,
        f"round trip {worst_round_trip:.2e}, orthogonality {worst_ortho:.2e},"
        f" reconstruction {worst_recon:.2e}",
    )


def test_criterion_10_figure_reproduction(tmp_path):
    out_dir = tmp_path / "figures"
    for fig_id in range(7, 13):
        assert main(["figure", str(fig_id), "--out-dir", str(out_dir)]) == 0

    count = 0
    worst_row = 0.0
    fig10_meta_seen = False
    for fig_id in range(7, 13):
        for suffix in "abcd":
            path = out_dir / f"fig{fig_id}{suffix}.csv"
            assert path.exists()
            count += 1
            meta = {}
            rows = []
            header = None
            for line in path.read_text().splitlines():
                if line.startswith("# "):
                    key, _, value = line[2:].partition(" = ")
                    meta[key] = value
                elif header is None:
                    header = line
                else:
                    rows.append([float(x) for x in line.split(",")])
            data = np.array(rows)
            assert header == "t,p1,p2,p3,p4"
            assert data.shape == (5001, 5)
            # rows re-parsed from 12-digit text; 1e-9 sits well above the
            # serialization floor and well below any physical drift
            worst_row = max(worst_row, float(np.abs(data[:, 1:].sum(axis=1) - 1.0).max()))
            if fig_id == 10 and meta.get("omega_field") == "0.4 0.4 0.4":
                fig10_meta_seen = True

    two_level = tmp_path / "two_level.csv"
    code = main([
        "simulate", "--model", "I", "--kappa", "21=0.24",
        "--t-max", "50", "--steps", "5001", "--out", str(two_level),
    ])
    assert code == 0
    rows = []
    for line in two_level.read_text().splitlines():
        if not line.startswith("#") and not line.startswith("t,"):
            rows.append([float(x) for x in line.split(",")])
    data = np.array(rows)
    sin_sq = np.sin(0.24 * data[:, 0]) ** 2
    two_level_dev = float(np.abs(data[:, 2] - sin_sq).max())

    ok = (
        count == 24
        and fig10_meta_seen
        and worst_row < 1e-9
        and two_level_dev < 1e-8
    )
    assert report(
        10,
        "figure reproduction",
        ok,
        f"24 traces, row norm {worst_row:.2e}, two-level {two_level_dev:.2e}",
    )
