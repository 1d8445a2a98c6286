"""End-to-end tests of the command line interface.

Each test drives ``main`` in process and inspects exit codes, stdout, and
the CSV files it writes. Exit code contract: 0 success, 1 check failure,
2 configuration error, 3 numerical blow-up.
"""

import contextlib
import io
import json
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from su4rabi import cli, dynamics, frame, models, spectral, symmetry
from su4rabi.cli import (
    _CSV_BLOCK,
    RunConfig,
    main,
    parse_transition_key,
    run_trace,
    trace_metadata,
    transition_key,
    write_trace_csv,
)
from su4rabi.errors import ConfigurationError
from su4rabi.models import ModelId, PopulationTrace, get_model


def read_csv(path):
    """Split a trace file into (metadata dict, header, data array)."""
    meta = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


def reference_csv_bytes(trace, metadata):
    """The trace file as a per-value f-string loop writes it."""
    lines = [f"# {key} = {value}\n" for key, value in metadata]
    lines.append("t,p1,p2,p3,p4\n")
    for t, row in zip(trace.times, trace.populations):
        lines.append(",".join(f"{x:.12e}" for x in (t, *row)) + "\n")
    return "".join(lines).encode()


class TestWriteTraceCsv:
    """The block writer must emit exactly the bytes of the per-value loop."""

    def assert_matches_reference(self, tmp_path, trace, metadata):
        path = tmp_path / "w.csv"
        write_trace_csv(str(path), trace, metadata)
        assert path.read_bytes() == reference_csv_bytes(trace, metadata)

    @pytest.mark.parametrize("method", ["spectral", "rk4"])
    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_block_boundaries(self, tmp_path, rows, method):
        cfg = RunConfig(
            model=ModelId.II, kappas={(4, 3): 0.24, (3, 1): 0.4, (2, 1): 0.24},
            init=2, t_max=0.0 if rows == 1 else 20.0, steps=rows, method=method,
        )
        self.assert_matches_reference(tmp_path, run_trace(cfg), trace_metadata(cfg))

    @pytest.mark.parametrize("method", ["spectral", "rk4"])
    def test_both_methods(self, tmp_path, method):
        cfg = RunConfig(
            model=ModelId.V, kappas={(4, 3): 0.24, (4, 2): 0.4, (2, 1): 0.24},
            init=3, t_max=10.0, steps=1001, method=method,
        )
        self.assert_matches_reference(tmp_path, run_trace(cfg), trace_metadata(cfg))

    def test_amplitude_initial_state(self, tmp_path):
        cfg = RunConfig(
            model=ModelId.I, kappas={(4, 1): 0.7, (3, 2): 0.24, (2, 1): 0.24},
            init=((0.6, 0.0), (0.0, 0.48), (0.0, 0.0), (0.64, 0.0)),
            t_max=30.0, steps=3001,
        )
        self.assert_matches_reference(tmp_path, run_trace(cfg), trace_metadata(cfg))

    def test_a_spectral_trace_writes_twice(self, tmp_path):
        # the trace holds its list of blocks, not a one-pass stream: a second
        # write of the same trace evaluates every block again, so both files
        # hold every row and report the same max norm error
        cfg = RunConfig(model=ModelId.I, kappas={(4, 1): 0.7, (3, 2): 0.24, (2, 1): 0.24},
                        steps=20_001)
        trace, metadata = run_trace(cfg), trace_metadata(cfg)
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        errors = [write_trace_csv(str(path), trace, metadata) for path in paths]
        assert paths[1].read_bytes() == paths[0].read_bytes() == reference_csv_bytes(trace, metadata)
        assert errors[1] == errors[0] > 0.0
        assert len(trace.blocks) > 1

    @pytest.mark.parametrize("rows", [20_001, 200_001])
    def test_working_set_is_one_block(self, tmp_path, rows):
        # a spectral trace is evaluated, formatted and written one block of
        # about 4 096 rows at a time: beyond the grid's 8 B per row, 1.56 and
        # 1.58 MB traced (NumPy 2.4.6), against 128 B per row when the whole
        # trace was built before the first byte was written
        cfg = RunConfig(model=ModelId.III, kappas={(4, 3): 0.24, (3, 2): 0.24, (2, 1): 0.24},
                        steps=rows)
        path = tmp_path / "long.csv"
        write_trace_csv(str(path), run_trace(cfg), trace_metadata(cfg))
        tracemalloc.start()
        try:
            write_trace_csv(str(path), run_trace(cfg), trace_metadata(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * rows < 2e6

    def test_signed_zero_subnormals_and_rounding_carry(self, tmp_path):
        # 0.99999999999995 rounds up to the next decade: 1.000000000000e+00
        pops = np.array([
            [-0.0, 5e-324, 1e-320, 0.99999999999995],
            [1e300, 0.0, 2.5e-13, 9.9999999999995e-01],
            [0.25, 0.25, 0.25, 0.25],
        ])
        trace = PopulationTrace(times=np.array([0.0, 1e-300, 7.5]), populations=pops)
        self.assert_matches_reference(tmp_path, trace, [("model", "I")])


class TestTransitionKeys:
    def test_round_trip(self):
        for tr in [(4, 1), (4, 2), (4, 3), (3, 1), (3, 2), (2, 1)]:
            assert parse_transition_key(transition_key(tr)) == tr

    def test_rejects_malformed(self):
        for bad in ("5", "412", "ab", "14", "44", "90"):
            with pytest.raises(ConfigurationError):
                parse_transition_key(bad)


class TestRunConfig:
    def test_json_round_trip_resonant(self):
        cfg = RunConfig(
            model=ModelId.II,
            kappas={(4, 3): 0.24, (3, 1): 0.4, (2, 1): 0.24},
            init=3,
            t_max=20.0,
            steps=2001,
            method="rk4",
        )
        document = """{"model": "II", "omega": [1.0, 2.0, 3.0],
            "kappas": {"43": 0.24, "31": 0.4, "21": 0.24}, "resonant": true,
            "init": 3, "t_max": 20.0, "steps": 2001, "method": "rk4"}"""
        assert RunConfig.from_json_dict(json.loads(document)) == cfg

    def test_json_round_trip_with_fields_and_amplitudes(self):
        cfg = RunConfig(
            model=ModelId.I,
            kappas={(4, 1): 0.7},
            fields={(4, 1): 4.3, (3, 2): 4.0, (2, 1): 2.0},
            init=((0.6, 0.0), (0.0, 0.8), (0.0, 0.0), (0.0, 0.0)),
        )
        document = """{"model": "I", "omega": [1.0, 2.0, 3.0], "kappas": {"41": 0.7},
            "init": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]],
            "t_max": 50.0, "steps": 5001, "method": "spectral",
            "fields": {"41": 4.3, "32": 4.0, "21": 2.0}}"""
        assert RunConfig.from_json_dict(json.loads(document)) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            RunConfig.from_json_dict({"model": "I", "bogus": 1})

    def test_rejects_resonant_plus_fields(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_json_dict(
                {"model": "I", "resonant": True, "fields": {"41": 4.0}}
            )

    def test_rejects_zero_span_multi_point_grid(self):
        with pytest.raises(ConfigurationError):
            RunConfig(model=ModelId.I, t_max=0.0, steps=100)

    @pytest.mark.parametrize("t_max", [float("inf"), float("nan")])
    def test_rejects_non_finite_t_max(self, t_max):
        with pytest.raises(ConfigurationError, match="t_max must be finite"):
            RunConfig(model=ModelId.I, t_max=t_max)

    @pytest.mark.parametrize("steps", [2.7, 3.0, "5", True])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ConfigurationError, match="steps must be an integer"):
            RunConfig.from_json_dict({"model": "I", "steps": steps})

    @pytest.mark.parametrize("data", [
        {"model": "I", "kappas": [1, 2]},
        {"model": "I", "init": [["a", 0], [0, 0], [0, 0], [0, 0]]},
        {"model": "I", "init": [[1], [0], [0], [0]]},
        {"model": "I", "omega": 5},
        {"model": "I", "t_max": None},
    ])
    def test_rejects_malformed_values(self, data):
        with pytest.raises(ConfigurationError):
            RunConfig.from_json_dict(data)

    @pytest.mark.parametrize("data, value", [
        ({"model": "I", "omega": "123"}, "'123'"),
        ({"model": "I", "omega": ["1", 2.0, 3.0]}, "'1'"),
        ({"model": "I", "kappas": {"41": "0.7"}}, "'0.7'"),
        ({"model": "I", "fields": {"41": "4", "32": 1.0, "21": 1.0}}, "'4'"),
        ({"model": "I", "init": ["10", "00", "00", "00"]}, "'10'"),
        ({"model": "I", "init": [["1", 0], [0, 0], [0, 0], [0, 0]]}, "'1'"),
        ({"model": "I", "t_max": "1"}, "'1'"),
        ({"model": "I", "t_max": True}, "True"),
        ({"model": "I", "t_max": 10**400}, "1" + "0" * 400),
    ], ids=["omega-string", "omega-string-entry", "kappa-string", "field-string",
            "init-strings", "init-string-part", "t_max-string", "t_max-bool",
            "t_max-huge-int"])
    def test_requires_json_numbers(self, data, value):
        # a string is not read as its characters or its digits, and the
        # message names the value
        with pytest.raises(ConfigurationError, match=re.escape(value)):
            RunConfig.from_json_dict(data)


class TestVerify:
    def test_clean_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "summary: 15 generators, 6 models" in out
        assert "(pass)" in out
        assert out.count("frame drift") == 6

    def test_injected_fault_is_caught(self, capsys):
        assert main(["verify", "--inject-fault", "scale-lambda1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "trace-normalization" in out


class TestSimulate:
    def test_single_point_trace(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main([
            "simulate", "--model", "I", "--kappa", "41=0.7",
            "--t-max", "0", "--steps", "1", "--out", str(out),
        ])
        assert code == 0
        meta, header, data = read_csv(out)
        assert header == "t,p1,p2,p3,p4"
        assert meta["model"] == "I"
        assert meta["fields"] == "resonant"
        assert data.shape == (1, 5)
        assert data[0] == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-14)

    def test_trace_grid_and_normalization(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main([
            "simulate", "--model", "VI", "--kappa", "41=0.7", "43=0.24", "32=0.24",
            "--t-max", "10", "--steps", "101", "--out", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        assert data.shape == (101, 5)
        assert data[:, 0] == pytest.approx(np.linspace(0.0, 10.0, 101), abs=1e-12)
        assert data[:, 1:].sum(axis=1) == pytest.approx(np.ones(101), abs=1e-9)

    def test_byte_stable_output(self, tmp_path):
        args = [
            "simulate", "--model", "III", "--kappa", "43=0.24", "32=0.24", "21=0.24",
            "--t-max", "5", "--steps", "501",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rk4_method_agrees_with_spectral(self, tmp_path):
        base = [
            "simulate", "--model", "I", "--kappa", "41=0.7", "21=0.24",
            "--t-max", "5", "--steps", "5001",
        ]
        spath, rpath = tmp_path / "s.csv", tmp_path / "r.csv"
        assert main(base + ["--method", "spectral", "--out", str(spath)]) == 0
        assert main(base + ["--method", "rk4", "--out", str(rpath)]) == 0
        _, _, s = read_csv(spath)
        _, _, r = read_csv(rpath)
        assert np.abs(s[:, 1:] - r[:, 1:]).max() < 1e-6

    def test_amplitude_init(self, tmp_path):
        out = tmp_path / "amp.csv"
        code = main([
            "simulate", "--model", "I", "--kappa", "41=0.7",
            "--init", "0.6,0,0.8,0,0,0,0,0",
            "--t-max", "0", "--steps", "1", "--out", str(out),
        ])
        assert code == 0
        _, _, data = read_csv(out)
        assert data[0, 1:] == pytest.approx([0.36, 0.64, 0.0, 0.0], abs=1e-12)

    def test_show_frame_prints_detunings_and_matrix(self, tmp_path, capsys):
        code = main([
            "simulate", "--model", "I", "--kappa", "41=0.7", "32=0.24", "21=0.24",
            "--show-frame", "--t-max", "1", "--steps", "11",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "detuning 41: +0.000000000000e+00" in out
        assert "frame matrix" in out
        # resonant chain: bare couplings sit on the off-diagonal
        assert "+7.000000000000e-01" in out

    def test_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            '{"model": "IV", "omega": [1.0, 2.0, 3.0],'
            ' "kappas": {"43": 0.24, "41": 0.7, "21": 0.24}, "resonant": true,'
            ' "init": 4, "t_max": 10.0, "steps": 201, "method": "spectral"}'
        )
        out = tmp_path / "from_config.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        meta, _, data = read_csv(out)
        assert meta["model"] == "IV"
        assert data.shape == (201, 5)

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SU4RABI_OUTDIR", str(tmp_path))
        code = main([
            "simulate", "--model", "I", "--kappa", "21=0.24",
            "--t-max", "1", "--steps", "11",
        ])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()

    def test_missing_model_is_config_error(self, capsys):
        assert main(["simulate"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_transition_key_exits_2(self):
        assert main(["simulate", "--model", "I", "--kappa", "90=0.1"]) == 2

    def test_forbidden_transition_exits_2(self):
        assert main(["simulate", "--model", "I", "--kappa", "43=0.1"]) == 2

    def test_nonnormalized_init_exits_2(self):
        assert main([
            "simulate", "--model", "I", "--kappa", "41=0.7",
            "--init", "1,0,1,0,0,0,0,0",
        ]) == 2

    @pytest.mark.parametrize("level", ["0", "5"])
    def test_init_level_outside_1_to_4_exits_2(self, tmp_path, capsys, level):
        # StateVector.basis refuses the level through row_of, the rule's owner
        out = tmp_path / "init.csv"
        argv = ["simulate", "--model", "I", "--kappa", "41=0.7", "--init", level]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"level {level} outside 1..4" in capsys.readouterr().err
        assert not out.exists()

    def test_off_resonance_needs_flag(self, tmp_path):
        base = [
            "simulate", "--model", "I", "--kappa", "41=0.7",
            "--field", "41=4.3", "32=4.0", "21=2.0",
            "--t-max", "1", "--steps", "11",
            "--out", str(tmp_path / "off.csv"),
        ]
        assert main(base) == 2
        assert main(base + ["--allow-nonresonant"]) == 0

    def test_resonant_field_conflict_exits_2(self):
        assert main([
            "simulate", "--model", "I", "--resonant", "--field", "41=4.0",
        ]) == 2

    def test_rk4_blowup_exits_3(self, tmp_path):
        assert main([
            "simulate", "--model", "I", "--kappa", "41=1e8",
            "--method", "rk4", "--t-max", "10", "--steps", "101",
            "--out", str(tmp_path / "blow.csv"),
        ]) == 3

    def test_rk4_finite_norm_blowup_exits_3(self, tmp_path, capsys):
        assert main([
            "simulate", "--model", "I", "--kappa", "41=0.7", "32=0.24", "21=0.24",
            "--method", "rk4", "--steps", "3", "--out", str(tmp_path / "blow.csv"),
        ]) == 3
        assert "step size h = 25" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["1e154", "1e-160", "3.1622776601683794e-160"])
    def test_rk4_scale_outside_its_window_exits_3(self, tmp_path, capsys, scale):
        # a @ k in the RK4 stages is of order max|H|^2, whatever the step: at
        # 1e154 it overflows, and at 1e-160 it underflows until the norm
        # drifts (10^-159.5 marched on, 4.9e-7 off the spectral route). The
        # drive is refused before the march, naming the scale, not the step
        out = tmp_path / "scaled.csv"
        t_max = repr(5.0 / float(scale))
        argv = ["simulate", "--model", "III", "--method", "rk4", "--omega", scale, scale, scale,
                "--kappa", f"21={scale}", f"32={scale}", f"43={scale}",
                "--t-max", t_max, "--steps", "200", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"max|H| = {float(scale):.3e}" in err
        assert "[1.492e-154, 1.676e+153]" in err
        assert "step" not in err
        assert not out.exists()
        # the spectral route has no such window
        assert main(argv[:3] + argv[5:]) == 0

    @pytest.mark.parametrize("scale", [2.0**-511, 1e-153, 1e150, 2.0**509])
    def test_rk4_scale_inside_its_window_matches_spectral(self, tmp_path, scale):
        # at either edge of the window, RK4 stays as close to the spectral
        # route as at scale 1 (1.32e-7 on this grid of h max|H| = 0.025)
        rows = {}
        for method in ("rk4", "spectral"):
            out = tmp_path / f"{method}.csv"
            argv = ["simulate", "--model", "III", "--method", method,
                    "--omega", *[repr(scale)] * 3,
                    "--kappa", *(f"{key}={scale!r}" for key in ("21", "32", "43")),
                    "--t-max", repr(5.0 / scale), "--steps", "200", "--out", str(out)]
            assert main(argv) == 0
            rows[method] = read_csv(out)[2][:, 1:]
        assert np.abs(rows["rk4"] - rows["spectral"]).max() < 1.4e-7

    def test_spectral_phase_overflow_exits_3(self, tmp_path, capsys):
        # max|eigenvalue| 1e308 over t up to 50: exp would see inf and nan
        # and write nan populations; the overflow is refused up front
        out = tmp_path / "overflow.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "simulate", "--model", "I", "--kappa", "41=1e308", "--steps", "3",
                "--out", str(out),
            ]) == 3
        err = capsys.readouterr().err
        assert "max|eigenvalue| = 1.000e+308" in err
        assert "max|t| = 5.000e+01" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, t_abs", [
        (["--kappa", "41=0.7", "--t-max", "1e150"], "1.000e+150"),
        (["--kappa", "41=0.7", "--field", "41=1", "32=1", "21=1", "--allow-nonresonant",
          "--t-max", "1e17"], "1.000e+17"),
    ])
    def test_spectral_phase_limit_exits_3(self, tmp_path, capsys, flags, t_abs):
        # grid spacing beyond 2 pi / max|eigenvalue|: the phases have no
        # correct digit, so the populations would describe nothing
        out = tmp_path / "late.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--model", "I", "--steps", "3", "--out", str(out)]
                        + flags) == 3
        err = capsys.readouterr().err
        assert "spectral phases lose accuracy" in err
        assert "max|eigenvalue| = " in err
        assert f"max|t| = {t_abs}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kappa", "41=nan", "32=0.24", "21=0.24"], "coupling for (4, 1) is not finite"),
        (["--kappa", "41=nan", "32=0.24", "21=0.24", "--method", "rk4"],
         "coupling for (4, 1) is not finite"),
        (["--kappa", "41=inf"], "coupling for (4, 1) is not finite"),
        (["--kappa", "41=0.7", "--omega", "nan", "2", "3"], "splitting w1 is not finite"),
        (["--kappa", "41=0.7", "--field", "41=nan", "32=4.0", "21=2.0", "--allow-nonresonant"],
         "field_freq for (4, 1) is not finite"),
        (["--kappa", "41=0.7", "--init", "nan,0,1,0,0,0,0,0"], "have norm nan"),
        (["--kappa", "41=0.7", "--t-max", "inf"], "t_max must be finite"),
        (["--kappa", "41=0.7", "--init", "1,a,0,0,0,0,0,0"], "bad --init value"),
        # argparse alone reads "-inf" and "-1e3" as unknown options
        (["--kappa", "41=0.7", "--t-max", "-inf"], "t_max must be finite"),
        (["--kappa", "41=0.7", "--t-max", "-1e3"], "t_max must be non-negative"),
        # the field frequencies overflow, but the input that caused it is omega
        (["--kappa", "41=0.7", "--omega", "1", "1", "1e308"],
         "omega 1.0 1.0 1e+308 overflows the level gap"),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, flags, message):
        argv = ["simulate", "--model", "I", "--t-max", "1", "--steps", "11"] + flags
        assert main(argv + ["--out", str(tmp_path / "nf.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "nf.csv").exists()

    def test_negative_exponent_form_parses_as_number(self):
        # argparse alone reads a token like "-1e3" as an unknown option
        argv = ["simulate", "--model", "I", "--omega", "1", "-1e3", "2",
                "--init", "-1,0,0,0,0,0,0,0"]
        args = cli._parser().parse_args(argv)
        assert args.omega == [1.0, -1000.0, 2.0]
        assert args.init == "-1,0,0,0,0,0,0,0"

    @pytest.mark.parametrize("text", [
        '{"model": "I", ',
        '{"model": "I", "kappas": [1, 2]}',
        '{"model": "I", "init": [["a", 0], [0, 0], [0, 0], [0, 0]]}',
        '{"model": "I", "steps": 2.7}',
        '{"model": "I", "omega": "123", "kappas": {"41": "0.7"},'
        ' "init": ["10", "00", "00", "00"], "t_max": 1, "steps": 3}',
        '5',
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        out = tmp_path / "bad.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    def test_unallocatable_grid_exits_2(self, tmp_path):
        # the address-space limit makes the 7.5 GiB grid fail at once; never
        # run this case without it, on a host that overcommits memory it
        # would start filling the grid
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        out = tmp_path / "huge.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "su4rabi.cli", "simulate", "--model", "I",
             "--kappa", "41=0.7", "--steps", "1000000000", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == 2
        assert "--steps 1000000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, document", [
        (["--model", "I", "--steps", str(10**20)], None),
        (["--config"], {"model": "I", "steps": 10**20}),
        (["--config"], {"model": "I", "steps": 10**400}),
    ])
    def test_steps_past_array_size_exits_2(self, tmp_path, capsys, argv, document):
        # past NumPy's largest array size, not merely past memory: np.linspace
        # refuses such a count with a ValueError before it allocates anything
        if document is not None:
            cfg_path = tmp_path / "huge.json"
            cfg_path.write_text(json.dumps(document))
            argv = argv + [str(cfg_path)]
        out = tmp_path / "huge.csv"
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        assert "error: steps = 1000" in capsys.readouterr().err
        assert not out.exists()


class TestChecksBeforeOpen:
    """A spectral trace is evaluated as it is written, so every check that can
    refuse a run must finish before the output file is opened."""

    @pytest.mark.parametrize("flags, code", [
        (["--t-max", "5e-324", "--steps", "3"], 2),  # the grid: times not increasing
        (["--t-max", "1e150", "--steps", "3"], 3),  # the phase budget
        (["--method", "rk4", "--steps", "3"], 3),  # the RK4 drift
        (["--method", "rk4", "--omega", "1e154", "1e154", "1e154", "--t-max", "5e-154",
          "--steps", "200"], 3),  # the RK4 scale window
    ])
    def test_refused_run_leaves_the_file_as_it_was(self, tmp_path, capsys, flags, code):
        out = tmp_path / "kept.csv"
        out.write_bytes(b"an earlier trace\n")
        argv = ["simulate", "--model", "I", "--kappa", "41=0.7", "32=0.24", "21=0.24",
                *flags, "--out", str(out)]
        assert main(argv) == code
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier trace\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "I", "--kappa", "41=0.7", "--t-max", "10", "--steps", "1001"],
        ["simulate", "--model", "I", "--kappa", "41=0.7", "--t-max", "10", "--steps", "1001",
         "--method", "rk4"],
        ["figure", "7"],
    ], ids=["simulate-spectral", "simulate-rk4", "figure"])
    def test_every_command_checks_its_times_once(self, monkeypatch, tmp_path, capsys, argv):
        # the checks run once, before the file is opened; the writer takes
        # the checked grid and the blocks the checks made, not a fresh
        # evaluation that would check the grid again
        calls = []

        def counted(times, check=models.check_times):
            calls.append(times)
            return check(times)

        for module in (models, dynamics, frame):
            monkeypatch.setattr(module, "check_times", counted)
        out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "simulate" else [
            "--out-dir", str(tmp_path)]
        assert main(argv + out) == 0
        assert len(calls) == 1

    def test_writes_through_a_symlink_and_to_dev_null(self, tmp_path, capsys):
        argv = ["simulate", "--model", "I", "--kappa", "41=0.7", "--steps", "5001", "--out"]
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(argv + [str(link)]) == 0
        assert link.is_symlink()
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert main(argv + ["/dev/null"]) == 0
        assert "wrote /dev/null (5001 rows, max norm error" in capsys.readouterr().out


class TestFigure:
    def test_writes_four_cases(self, tmp_path, capsys):
        assert main(["figure", "9", "--out-dir", str(tmp_path)]) == 0
        for suffix in "abcd":
            assert (tmp_path / f"fig9{suffix}.csv").exists()

    def test_standard_grid_and_norms(self, tmp_path):
        assert main(["figure", "7", "--out-dir", str(tmp_path)]) == 0
        meta, header, data = read_csv(tmp_path / "fig7a.csv")
        assert header == "t,p1,p2,p3,p4"
        assert meta["model"] == "I"
        assert data.shape == (5001, 5)
        assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(50.0, abs=1e-12)
        assert data[:, 1:].sum(axis=1) == pytest.approx(np.ones(5001), abs=1e-9)

    def test_case_initial_levels(self, tmp_path):
        assert main(["figure", "8", "--out-dir", str(tmp_path)]) == 0
        for level, suffix in enumerate("abcd", start=1):
            _, _, data = read_csv(tmp_path / f"fig8{suffix}.csv")
            expected = np.zeros(4)
            expected[level - 1] = 1.0
            assert data[0, 1:] == pytest.approx(expected, abs=1e-12)

    def test_detuned_figure_metadata(self, tmp_path):
        assert main(["figure", "10", "--out-dir", str(tmp_path)]) == 0
        meta, _, _ = read_csv(tmp_path / "fig10a.csv")
        assert meta["omega_field"] == "0.4 0.4 0.4"

    def test_other_figures_lack_extra_metadata(self, tmp_path):
        assert main(["figure", "11", "--out-dir", str(tmp_path)]) == 0
        meta, _, _ = read_csv(tmp_path / "fig11a.csv")
        assert "omega_field" not in meta

    def test_invalid_id_exits_2(self):
        assert main(["figure", "13"]) == 2

    @pytest.mark.parametrize("figure_id", sorted(cli.FIGURE_MODELS))
    def test_each_trace_is_the_simulate_csv_of_its_start(self, tmp_path, capsys, figure_id):
        # one route for every start: figure's four traces are byte for byte
        # the CSVs of simulate with the standard couplings from each level
        mid = cli.FIGURE_MODELS[figure_id]
        kappas = [
            f"{transition_key(tr)}={cli.STANDARD_COUPLINGS[tr]}"
            for tr in get_model(mid).allowed
        ]
        assert main(["figure", str(figure_id), "--out-dir", str(tmp_path)]) == 0
        for level, suffix in cli.CASE_SUFFIX.items():
            out = tmp_path / f"sim{suffix}.csv"
            argv = ["simulate", "--model", mid, "--kappa", *kappas, "--init", str(level)]
            assert main([*argv, "--out", str(out)]) == 0
            figure = (tmp_path / f"fig{figure_id}{suffix}.csv").read_bytes()
            if figure_id == 10:
                figure = figure.replace(b"# omega_field = 0.4 0.4 0.4\n", b"", 1)
            assert figure == out.read_bytes()


class TestSymmetryCommand:
    @pytest.mark.parametrize("pair", ["I:VI", "II:V", "III", "IV"])
    def test_pairs_pass(self, pair, capsys):
        assert main(["symmetry", pair]) == 0
        assert "max population deviation" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "pair, line",
        [
            ("I:VI", "inversion I -> VI: max population deviation 6.883e-15 over t in [0, 50]"),
            ("II:V", "inversion II -> V: max population deviation 5.218e-15 over t in [0, 50]"),
            ("III", "inversion III -> III: max population deviation 1.110e-15 over t in [0, 50]"),
            ("IV", "inversion IV -> IV: max population deviation 1.110e-15 over t in [0, 50]"),
        ],
    )
    def test_pinned_output(self, pair, line, capsys):
        # the deviations are rounding, so these pin the bits of both solves
        # and of the relabelled drive (NumPy 2.4.6, OpenBLAS)
        assert main(["symmetry", pair]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_unknown_pair_exits_2(self):
        assert main(["symmetry", "I:II"]) == 2


class TestReduceSu2Command:
    def test_default_passes(self, capsys):
        assert main(["reduce-su2"]) == 0
        out = capsys.readouterr().out
        assert "eigenvalues:" in out
        assert "closed-form deviation" in out

    def test_custom_kappa_passes(self):
        assert main(["reduce-su2", "--kappa", "0.5"]) == 0

    def test_tiny_kappa_keeps_its_eigenvalues(self, capsys):
        # an absolute Jacobi stopping rule and eigenvalue check would accept
        # four zeros here
        assert main(["reduce-su2", "--kappa", "1e-300"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        values = np.array([float(x) for x in line.split(":")[1].split()])
        expected = np.array([-3.0, -1.0, 1.0, 3.0]) * 1e-300
        assert np.abs(values - expected).max() <= 1e-12 * 3e-300

    def test_nonpositive_kappa_exits_2(self):
        assert main(["reduce-su2", "--kappa", "-1"]) == 2

    def test_overflowing_kappa_names_kappa(self, capsys):
        # the coupling 2 kappa overflows; the message names the input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reduce-su2", "--kappa", "1e308"]) == 2
        captured = capsys.readouterr()
        assert "kappa = 1e+308 gives a non-finite coupling 2 kappa = inf" in captured.err
        assert captured.out == ""

    def test_phase_limit_exits_3(self, capsys):
        # the eigenvalues are right to 2e-16 relative; kappa t reaches 5e201,
        # so the phases, not the spectrum, are what fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reduce-su2", "--kappa", "1e200"]) == 3
        captured = capsys.readouterr()
        assert "max|eigenvalue| = 3.000e+200 times max|t| = 5.000e+01" in captured.err
        assert captured.out == ""


class TestParserReuse:
    """main builds its parser once; successive calls must not share state."""

    def test_option_does_not_leak_into_next_call(self, capsys):
        assert main(["reduce-su2", "--kappa", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("eigenvalues: -1.5 -0.5 0.5 1.5\n")
        assert main(["reduce-su2"]) == 0
        assert capsys.readouterr().out.startswith("eigenvalues: -0.72 -0.24 0.24 0.72\n")

    def test_omega_default_is_the_shared_tuple(self):
        args = cli._parser().parse_args(["simulate", "--model", "I"])
        assert args.omega is cli.DEFAULT_OMEGA
        assert cli._parser() is cli._parser()

    def test_usage_error_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--steps", "many"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main(["symmetry", "III"]) == 0


class TestSingleSolve:
    """Each command diagonalizes each distinct frame matrix once."""

    @staticmethod
    def count_eigensolves(monkeypatch, argv):
        calls = []

        def counted(h):
            calls.append(h)
            return spectral.jacobi_eigh(h)

        for module in (dynamics, symmetry, cli):
            if hasattr(module, "jacobi_eigh"):
                monkeypatch.setattr(module, "jacobi_eigh", counted)
        assert main(argv) == 0
        return len(calls)

    def test_symmetry_solves_source_and_partner_once(self, monkeypatch, capsys):
        assert self.count_eigensolves(monkeypatch, ["symmetry", "I:VI"]) == 2

    def test_symmetry_does_not_search_the_catalog(self, monkeypatch, capsys):
        # the command reports the partner and relabels the drive onto it;
        # both look the flipped path up in the index built at import
        searches = []

        for module in (models, symmetry, cli):
            catalog = module.catalog

            def counted(catalog=catalog):
                searches.append(1)
                return catalog()

            monkeypatch.setattr(module, "catalog", counted)
        assert main(["symmetry", "I:VI"]) == 0
        assert main(["symmetry", "II:V"]) == 0
        assert searches == []

    def test_reduce_su2_solves_once(self, monkeypatch, capsys):
        assert self.count_eigensolves(monkeypatch, ["reduce-su2"]) == 1

    def test_figure_solves_once_for_four_levels(self, monkeypatch, capsys, tmp_path):
        argv = ["figure", "7", "--out-dir", str(tmp_path)]
        assert self.count_eigensolves(monkeypatch, argv) == 1


TRANSITION_KEYS = ["41", "42", "43", "31", "32", "21"]
VALID_INITS = st.one_of(
    st.integers(1, 4),
    st.sampled_from([
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.6, 0.0], [0.0, 0.48], [0.0, 0.0], [0.64, 0.0]],
        [[0.5, 0.5], [0.5, -0.5], [0.0, 0.0], [0.0, 0.0]],
    ]),
)
# strings and lists of strings where numbers belong; none may be read as
# its characters or its digits
NUMBER_STRINGS = st.sampled_from(["1", "0.7", "123", "10", "", "nan"])
NOT_NUMBERS = NUMBER_STRINGS | st.lists(NUMBER_STRINGS, min_size=1, max_size=4)
ANY_INITS = st.one_of(
    VALID_INITS,
    st.sampled_from([0, 5, True, "1"]),
    st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=3, max_size=5),
    st.lists(NUMBER_STRINGS, min_size=4, max_size=4),
    st.lists(st.lists(NUMBER_STRINGS, min_size=2, max_size=2), min_size=4, max_size=4),
)
ANY_COUPLINGS = st.one_of(
    st.floats(0.0, 2.0),
    st.sampled_from([-0.5, -0.0, 1e-300, 1e300, float("nan"), float("inf")]),
    NOT_NUMBERS,
)
# every decade up to 1e300, so that three-digit exponents reach the CSV
T_MAX = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e300),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-3, 299)),
)


@st.composite
def config_documents(draw):
    """A ``simulate --config`` document; three in four draw only valid values."""
    valid = draw(st.sampled_from([True, True, True, False]))
    model = draw(st.sampled_from(["I", "II", "III", "IV", "V", "VI"]))
    allowed = [cli.transition_key(tr) for tr in cli.get_model(model).allowed]
    keys = allowed if valid else TRANSITION_KEYS
    t_max = draw(T_MAX if valid else T_MAX | NOT_NUMBERS)
    doc = {
        "model": model,
        "kappas": draw(st.dictionaries(
            st.sampled_from(keys), st.floats(0.0, 2.0) if valid else ANY_COUPLINGS, max_size=6,
        )),
        "t_max": t_max,
        "steps": draw(st.integers(1, 40)) if not valid or t_max > 0 else 1,
        "method": draw(st.sampled_from(["spectral", "rk4"])),
        "init": draw(VALID_INITS if valid else ANY_INITS),
    }
    if draw(st.booleans()):
        omega = st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3)
        doc["omega"] = draw(omega if valid else omega | NOT_NUMBERS)
    drive = draw(st.sampled_from(["default", "resonant", "fields"] + ([] if valid else ["both"])))
    if drive in ("resonant", "both"):
        doc["resonant"] = True
    if drive in ("fields", "both"):
        doc["fields"] = draw(st.fixed_dictionaries({k: st.floats(0.0, 10.0) for k in keys}))
    return doc


def flag_vector(doc):
    """The ``simulate`` flags that spell a config document, or None if none do."""
    if isinstance(doc["init"], str):
        return None  # no flag spelling: "--init 1" is the level, not a string
    init = doc["init"]
    argv = [
        "simulate", "--model", doc["model"], "--t-max", repr(doc["t_max"]),
        "--steps", str(doc["steps"]), "--method", doc["method"],
        "--init", ",".join(repr(x) for pair in init for x in pair)
        if isinstance(init, list) else str(init),
    ]
    if "omega" in doc:
        argv += ["--omega", *map(repr, doc["omega"])]
    if doc["kappas"]:
        argv += ["--kappa", *(f"{k}={v!r}" for k, v in doc["kappas"].items())]
    if doc.get("resonant"):
        argv.append("--resonant")
    if "fields" in doc:
        argv += ["--field", *(f"{k}={v!r}" for k, v in doc["fields"].items())]
    return argv


class TestConfigFuzz:
    """Every ``simulate --config`` document gets a chosen outcome, never a
    traceback, and the same outcome and bytes as its flag spelling."""

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=config_documents(), allow_nonresonant=st.booleans())
    @example(doc={"model": "I", "omega": "123", "kappas": {"41": "0.7"},
                  "init": ["10", "00", "00", "00"], "t_max": 1, "steps": 3, "method": "spectral"},
             allow_nonresonant=False)
    def test_exit_code_and_bytes(self, tmp_path, doc, allow_nonresonant):
        cfg_path, out = tmp_path / "fuzz.json", tmp_path / "fuzz.csv"
        cfg_path.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
        if allow_nonresonant:
            argv.append("--allow-nonresonant")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            cfg = RunConfig.from_json_dict(json.loads(cfg_path.read_text()))
            trace = run_trace(cfg, allow_nonresonant=allow_nonresonant)
            assert out.read_bytes() == reference_csv_bytes(trace, trace_metadata(cfg))
            event(f"t_max {'>=' if cfg.t_max >= 1e100 else '<'} 1e100, exit 0")

        flags = flag_vector(doc)
        if flags is None:
            return
        flag_out = tmp_path / "fuzz_flags.csv"
        flag_out.unlink(missing_ok=True)
        flags += ["--out", str(flag_out)] + (["--allow-nonresonant"] if allow_nonresonant else [])
        flag_code, flag_stderr = run_cli(flags)
        assert flag_code == code, flag_stderr
        if code == 0:
            assert flag_out.read_bytes() == out.read_bytes()


def run_cli(argv):
    """Exit code and stderr of one in-process run; argparse exits through SystemExit."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


NUMBERS = ["0", "1", "0.24", "-1", "1e-300", "1e17", "1e200", "1e308", "nan", "inf", "x", ""]
ASSIGNMENTS = st.builds(
    "{}={}".format,
    st.sampled_from(TRANSITION_KEYS + ["14", "4", "x1", "411"]),
    st.sampled_from(NUMBERS),
) | st.sampled_from(["41", "=1", "41=0.7=1"])
SIMULATE_OPTIONS = {
    "--model": st.sampled_from(["I", "II", "III", "IV", "V", "VI", "VII"]).map(lambda v: [v]),
    "--omega": st.lists(st.sampled_from(["1", "2.5", "0", "-1", "1e308", "nan", "x"]),
                        min_size=2, max_size=4),
    "--kappa": st.lists(ASSIGNMENTS, min_size=0, max_size=4),
    "--field": st.lists(ASSIGNMENTS, min_size=0, max_size=4),
    "--resonant": st.just([]),
    "--init": st.sampled_from(["1", "4", "0", "5", "x", "1,0,0,0,0,0,0,0",
                               "0.6,0,0,0.8,0,0,0,0", "1,0", "nan,0,1,0,0,0,0,0"]).map(lambda v: [v]),
    "--t-max": st.sampled_from(["0", "1", "50", "-1", "nan", "inf", "1e17", "1e150", "x"]).map(
        lambda v: [v]),
    "--steps": st.sampled_from(["1", "2", "3", "40", "0", "-3", "1.5", "x"]).map(lambda v: [v]),
    "--method": st.sampled_from(["spectral", "rk4", "euler"]).map(lambda v: [v]),
    "--allow-nonresonant": st.just([]),
    "--show-frame": st.just([]),
    "--config": st.sampled_from(["valid.json", "missing.json", "broken.json"]).map(lambda v: [v]),
}


@st.composite
def argument_vectors(draw):
    """An argv for one of the five subcommands; every size stays small."""
    command = draw(st.sampled_from(["verify", "simulate", "figure", "symmetry", "reduce-su2"]))
    argv = [command]
    if command == "verify":
        argv += draw(st.sampled_from([[], ["--inject-fault", "scale-lambda1"],
                                      ["--inject-fault", "other"]]))
    elif command == "simulate":
        flags = draw(st.lists(st.sampled_from(sorted(SIMULATE_OPTIONS)), unique=True))
        if "--model" not in flags and draw(st.integers(0, 3)):  # most runs name a model
            flags.insert(0, "--model")
        for flag in flags:
            argv += [flag, *draw(SIMULATE_OPTIONS[flag])]
    elif command == "figure":
        argv += draw(st.sampled_from([["7"], ["12"], ["6"], ["13"], ["x"], []]))
    elif command == "symmetry":
        argv += draw(st.sampled_from([["I:VI"], ["II:V"], ["III"], ["IV"], ["I:II"], ["V"], []]))
    else:
        argv += draw(st.sampled_from([[]] + [["--kappa", v] for v in NUMBERS]))
    argv += draw(st.sampled_from([[]] * 6 + [["--bogus"], ["extra"]]))
    return argv


class TestArgvFuzz:
    """Every argument vector gets a chosen exit code, never a traceback."""

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=argument_vectors())
    # a level gap that overflows once raised a RuntimeWarning in resonant_drive
    @example(argv=["simulate", "--model", "I", "--omega", "1", "1", "1e308"])
    # a point count past NumPy's largest array once ended in a ValueError
    @example(argv=["simulate", "--model", "I", "--steps", "100000000000000000000"])
    def test_exit_code_without_traceback(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("SU4RABI_OUTDIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "valid.json").write_text(
            '{"model": "I", "kappas": {"41": 0.7}, "t_max": 5, "steps": 11}')
        (tmp_path / "broken.json").write_text('{"model": ')
        code, stderr = run_cli(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "su4rabi.cli", "verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "summary: 15 generators, 6 models" in proc.stdout
