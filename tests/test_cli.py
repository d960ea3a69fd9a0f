import json
from dataclasses import asdict

import numpy as np
import pytest

from betahmm import CountSequence, DataError, FtdConfig, load_model
from betahmm import _blas, cli
from betahmm.cli import main
from betahmm.io import ModelFile, file_digest, save_model, write_methylation_tsv


def _simulate(tmp_path, name="counts.tsv", length=600, states=2, cells=1, seed=0,
              truth=None):
    out = tmp_path / name
    argv = [
        "simulate",
        "--length", str(length),
        "--states", str(states),
        "--cells", str(cells),
        "--seed", str(seed),
        "--out", str(out),
    ]
    if truth is not None:
        argv += ["--truth", str(truth)]
    assert main(argv) == 0
    return out


def _fit(tmp_path, data, algo="ftd", states=2, granularity=8, extra=()):
    model = tmp_path / f"model_{algo.replace('+', '_')}.json"
    argv = [
        "fit",
        "--data", str(data),
        "--out", str(model),
        "--algo", algo,
        "--states", str(states),
        "--granularity", str(granularity),
        "--seed", "0",
        *extra,
    ]
    assert main(argv) == 0
    return model


def _planted_model(tmp_path):
    path = tmp_path / "planted.json"
    save_model(ModelFile(
        num_states=2, num_cells=1, granularity=None,
        initial_dist=np.array([0.5, 0.5]), transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
        meth_probs=np.array([[0.1, 0.8]]),
    ), path)
    return path


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a = _simulate(tmp_path, "a.tsv", truth=tmp_path / "ta.json")
        b = _simulate(tmp_path, "b.tsv", truth=tmp_path / "tb.json")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "ta.json").read_bytes() == (tmp_path / "tb.json").read_bytes()

    def test_truth_file_is_a_valid_model(self, tmp_path):
        truth = tmp_path / "truth.json"
        _simulate(tmp_path, truth=truth, cells=2, states=4)
        model = load_model(truth)
        assert model.num_states == 4
        assert model.num_cells == 2
        assert model.meth_probs.shape == (2, 4)
        model.to_params()
        assert model.provenance["algorithm"] == "simulate"
        assert model.provenance["timestamp"] is None

    def test_different_seeds_differ(self, tmp_path):
        a = _simulate(tmp_path, "a.tsv", seed=0)
        b = _simulate(tmp_path, "b.tsv", seed=1)
        assert a.read_bytes() != b.read_bytes()


class TestFitAndEval:
    def test_ftd_fit_then_eval(self, tmp_path, capsys):
        data = _simulate(tmp_path)
        model_path = _fit(tmp_path, data)
        model = load_model(model_path)
        assert model.num_states == 2
        assert model.granularity == 8
        assert model.provenance["algorithm"] == "ftd"
        assert model.provenance["seed"] == 0
        assert model.provenance["input_sha256"] == file_digest(data)
        assert model.provenance["config"] == {"granularity": 8, "moment_ridge": None}
        assert "effective_rank" in model.diagnostics
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--data", str(data)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["test_positions"] == 60
        assert np.isfinite(result["test_log_likelihood"])
        assert result["per_position"] == pytest.approx(
            result["test_log_likelihood"] / result["test_positions"]
        )
        assert "differential_states" not in result

    def test_em_fit(self, tmp_path):
        data = _simulate(tmp_path)
        model_path = _fit(tmp_path, data, algo="em", extra=("--em-iters", "5"))
        model = load_model(model_path)
        assert model.granularity is None
        assert model.provenance["algorithm"] == "em"
        # recorded without loading the spectral fit, as FtdConfig records it
        assert model.provenance["config"] == asdict(FtdConfig(granularity=8))
        lls = model.diagnostics["log_likelihoods"]
        assert len(lls) == 5
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
        seconds = model.diagnostics["em_seconds"]
        assert len(seconds) == 5
        assert min(seconds) >= 0.0

    def test_warm_started_em_fit(self, tmp_path):
        data = _simulate(tmp_path)
        model_path = _fit(
            tmp_path, data, algo="ftd+em", extra=("--em-rounds", "2")
        )
        model = load_model(model_path)
        assert model.provenance["algorithm"] == "ftd+em"
        diag = model.diagnostics
        assert len(diag["log_likelihoods"]) == 2
        assert len(diag["em_seconds"]) == 2
        assert min(diag["em_seconds"]) >= 0.0
        # the spectral stage explains itself in the same file
        rank = diag["effective_rank"]
        assert 1 <= rank <= 2
        assert len(diag["pair_values"]) == len(diag["pair_floor"]) == 2
        assert diag["rank_margins"] == [
            val / floor if floor > 0.0 else None
            for val, floor in zip(diag["pair_values"], diag["pair_floor"])
        ]
        assert set(diag["timings"]) == {"moments_s", "spectral_s", "recovery_s"}
        assert len(diag["distinct_keys"]) == 1

    def test_two_cell_eval_reports_differential_states(self, tmp_path, capsys):
        data = _simulate(tmp_path, length=800, cells=2, states=2)
        model_path = _fit(tmp_path, data, states=2, granularity=6)
        capsys.readouterr()
        code = main([
            "eval", "--model", str(model_path), "--data", str(data),
            "--diff-threshold", "0.25",
        ])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["diff_threshold"] == 0.25
        assert isinstance(result["differential_states"], list)


class TestBenchmarkCommand:
    def test_tiny_sweep_writes_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = main([
            "benchmark",
            "--lengths", "64",
            "--trials", "1",
            "--states", "2",
            "--granularity", "6",
            "--seed", "0",
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        report = (out_dir / "report.csv").read_text().strip().splitlines()
        assert report[0] == "length,trial,algorithm,error,seconds,status"
        assert len(report) == 3
        summary = (out_dir / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 3
        printed = capsys.readouterr().out
        assert "length" in printed and "wrote" in printed


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--length", "10", "--out", str(tmp_path / "x"),
                     "--bogus"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--power-iters", "--power-restarts"])
    def test_removed_power_method_flags_are_usage_errors(self, tmp_path, capsys, flag):
        data = _simulate(tmp_path, length=50)
        code = main([
            "fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
            "--states", "2", flag, "5",
        ])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_zero_cells_is_parameter_error(self, tmp_path, capsys):
        out = tmp_path / "x.tsv"
        code = main(["simulate", "--length", "10", "--cells", "0", "--out", str(out)])
        assert code == 2
        assert "num_cells must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mean", ["nan", "inf", "1e19"])
    def test_coverage_mean_out_of_range_is_parameter_error(self, tmp_path, capsys, mean):
        out = tmp_path / "x.tsv"
        code = main(["simulate", "--length", "10", "--coverage-mean", mean, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: coverage_mean must lie in" in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "m.json"), "--states", "2",
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tvalid\theader\n")
        code = main([
            "fit", "--data", str(bad),
            "--out", str(tmp_path / "m.json"), "--states", "2",
        ])
        assert code == 2
        capsys.readouterr()

    def test_non_utf8_table_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(
            b"chrom\tbin_start\tcontext\tcov_1\tmeth_1\n"
            b"chr1\t0\tCG\t5\t2\nchr\xe91\t100\tCG\t5\t2\n"
        )
        code = main([
            "fit", "--data", str(bad),
            "--out", str(tmp_path / "m.json"), "--states", "2",
        ])
        assert code == 2
        assert f"{bad}:3: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("version", ["1", None])
    def test_non_numeric_schema_version_is_data_error(self, tmp_path, capsys, version):
        model_path = _planted_model(tmp_path)
        payload = json.loads(model_path.read_text())
        payload["schema_version"] = version
        model_path.write_text(json.dumps(payload))
        code = main([
            "eval", "--model", str(model_path), "--data", str(_simulate(tmp_path, length=50)),
        ])
        assert code == 2
        assert "malformed model file" in capsys.readouterr().err

    def test_count_above_int64_is_data_error(self, tmp_path, capsys):
        model_path = _fit(tmp_path, _simulate(tmp_path, length=200))
        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "chrom\tbin_start\tcontext\tcov_1\tmeth_1\n"
            "chr1\t0\tCG\t5\t2\nchr1\t100\tCG\t99999999999999999999\t2\n"
        )
        code = main(["eval", "--model", str(model_path), "--data", str(bad)])
        assert code == 2
        assert f"{bad}:3: " in capsys.readouterr().err

    def test_cell_count_mismatch(self, tmp_path, capsys):
        one_cell = _simulate(tmp_path, "one.tsv", cells=1)
        model_path = _fit(tmp_path, one_cell)
        two_cell = _simulate(tmp_path, "two.tsv", cells=2, length=200)
        code = main(["eval", "--model", str(model_path), "--data", str(two_cell)])
        assert code == 2
        assert "cell" in capsys.readouterr().err

    def test_unidentifiable_fit_is_numerical_failure(self, tmp_path, capsys):
        # eight states cannot fit through a six-dimensional feature map
        data = _simulate(tmp_path, length=200)
        code = main([
            "fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
            "--states", "8", "--granularity", "6",
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_forward_underflow_in_eval_is_numerical_failure(self, tmp_path, capsys):
        # the chain never leaves the unmethylated state, yet the scored half
        # (the last 100 positions) holds a fully methylated position at 37
        meth = np.zeros(200, dtype=np.int64)
        meth[137] = 50
        data = tmp_path / "stuck.tsv"
        write_methylation_tsv(data, CountSequence(np.full(200, 50), meth))
        model_path = tmp_path / "stuck.json"
        save_model(ModelFile(
            num_states=2, num_cells=1, granularity=None,
            initial_dist=np.array([1.0, 0.0]), transition=np.eye(2),
            meth_probs=np.array([[0.0, 1.0]]),
        ), model_path)
        code = main([
            "eval", "--model", str(model_path), "--data", str(data),
            "--train-frac", "0.5",
        ])
        assert code == 3
        assert "underflowed at position 37" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_bad_train_fraction(self, tmp_path, capsys, command):
        data = _simulate(tmp_path, length=50)
        if command.startswith("fit"):
            argv = [*command.split(), "--out", str(tmp_path / "m.json"), "--states", "2"]
        else:
            argv = ["eval", "--model", str(_planted_model(tmp_path))]
        code = main([*argv, "--data", str(data), "--train-frac", "1.5"])
        assert code == 2
        assert "train fraction must lie in (0, 1], got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("floor", ["0.5", "0.7", "1.5", "-0.1", "nan"])
    def test_prob_floor_outside_its_range(self, tmp_path, capsys, floor):
        data = _simulate(tmp_path, length=50)
        code = main([
            "eval", "--model", str(_planted_model(tmp_path)), "--data", str(data),
            "--prob-floor", floor,
        ])
        assert code == 2
        assert f"--prob-floor must lie in [0, 0.5), got {float(floor)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("fit", "--train-frac", "1.5", "train fraction must lie in (0, 1], got 1.5"),
            ("fit", "--states", "0", "--states must be >= 1, got 0"),
            ("fit", "--granularity", "0", "granularity must be >= 1, got 0"),
            ("fit --algo em", "--granularity", "0", "granularity must be >= 1, got 0"),
            ("fit", "--em-rounds", "-1", "--em-rounds must be >= 0, got -1"),
            ("fit", "--em-iters", "0", "max_iters must be >= 1, got 0"),
            ("fit", "--em-tol", "nan", "rel_ll_tolerance must lie in [0, inf), got nan"),
            ("fit", "--em-tol", "inf", "rel_ll_tolerance must lie in [0, inf), got inf"),
            ("eval", "--train-frac", "0", "train fraction must lie in (0, 1], got 0.0"),
            ("eval", "--prob-floor", "0.5", "--prob-floor must lie in [0, 0.5), got 0.5"),
            ("eval", "--diff-threshold", "7", "--diff-threshold must lie in [0, 1], got 7.0"),
            ("eval", "--diff-threshold", "nan", "--diff-threshold must lie in [0, 1], got nan"),
        ],
    )
    def test_bad_flag_is_reported_before_the_table_is_read(
        self, tmp_path, capsys, command, flag, value, message
    ):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tvalid\theader\n")
        if command.startswith("fit"):
            argv = [*command.split(), "--out", str(tmp_path / "m.json"), "--states", "2"]
        else:
            argv = ["eval", "--model", str(_planted_model(tmp_path))]
        code = main([*argv, "--data", str(bad), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err


class TestBlasThreads:
    def test_commands_run_on_one_blas_thread_and_the_count_is_restored(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = _blas._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS thread count cannot be set here")
        get_threads, set_threads = calls
        seen = []

        def body(args):
            seen.append(get_threads())
            if args.length == 0:
                raise DataError("no positions")
            return 0

        monkeypatch.setitem(cli._COMMANDS, "simulate", body)
        before = get_threads()
        set_threads(2)
        try:
            for length, code in (("5", 0), ("0", 2)):
                argv = ["simulate", "--length", length, "--out", str(tmp_path / "x.tsv")]
                assert main(argv) == code
                assert get_threads() == 2
            assert seen == [1, 1]
        finally:
            set_threads(before)
        capsys.readouterr()
