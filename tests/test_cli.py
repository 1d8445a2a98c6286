"""End-to-end tests of the command line interface.

Each test drives ``main`` in process and inspects exit codes, stdout, and
the CSV files it writes. Exit code contract: 0 success, 1 check failure,
2 configuration error, 3 numerical blow-up.
"""

import json
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

from su4rabi import cli, dynamics, spectral, symmetry
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
from su4rabi.models import ModelId, PopulationTrace


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

    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_block_boundaries(self, tmp_path, rows):
        cfg = RunConfig(
            model=ModelId.II, kappas={(4, 3): 0.24, (3, 1): 0.4, (2, 1): 0.24},
            init=2, t_max=0.0 if rows == 1 else 20.0, steps=rows,
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
        assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_json_round_trip_with_fields_and_amplitudes(self):
        cfg = RunConfig(
            model=ModelId.I,
            kappas={(4, 1): 0.7},
            fields={(4, 1): 4.3, (3, 2): 4.0, (2, 1): 2.0},
            init=((0.6, 0.0), (0.0, 0.8), (0.0, 0.0), (0.0, 0.0)),
        )
        data = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(data) == cfg

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
        cfg = RunConfig(
            model=ModelId.IV,
            kappas={(4, 3): 0.24, (4, 1): 0.7, (2, 1): 0.24},
            init=4,
            t_max=10.0,
            steps=201,
        )
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
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
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, flags, message):
        argv = ["simulate", "--model", "I", "--t-max", "1", "--steps", "11"] + flags
        assert main(argv + ["--out", str(tmp_path / "nf.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "nf.csv").exists()

    @pytest.mark.parametrize("text", [
        '{"model": "I", ',
        '{"model": "I", "kappas": [1, 2]}',
        '{"model": "I", "init": [["a", 0], [0, 0], [0, 0], [0, 0]]}',
        '{"model": "I", "steps": 2.7}',
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


class TestSymmetryCommand:
    @pytest.mark.parametrize("pair", ["I:VI", "II:V", "III", "IV"])
    def test_pairs_pass(self, pair, capsys):
        assert main(["symmetry", pair]) == 0
        assert "max population deviation" in capsys.readouterr().out

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

    def test_reduce_su2_solves_once(self, monkeypatch, capsys):
        assert self.count_eigensolves(monkeypatch, ["reduce-su2"]) == 1

    def test_figure_solves_once_for_four_levels(self, monkeypatch, capsys, tmp_path):
        argv = ["figure", "7", "--out-dir", str(tmp_path)]
        assert self.count_eigensolves(monkeypatch, argv) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "su4rabi.cli", "verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "summary: 15 generators, 6 models" in proc.stdout
