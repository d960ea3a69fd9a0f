import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import betahmm
from betahmm import (
    FtdConfig,
    HmmParams,
    ParameterError,
    SynthConfig,
    estimation_error,
    generate_params,
    run_benchmark,
    sample_sequence,
    stationary_distribution,
    validate_params,
)
from betahmm import _blas, synth
from betahmm.synth import _hidden_states, _row_seeds
from oracles import sequential_states, stationary_oracle


# sweep rows of both algorithms at two lengths, as JSON on the last line
_ROWS_PROBE = """
import json
from betahmm.synth import SynthConfig, _run_row
rows = [_run_row(SynthConfig(), n, 0, a) for n in (512, 8192) for a in ("ftd", "em")]
print(json.dumps([[r.status, r.error, r.recovered_probs] for r in rows]))
"""


def _tiny_config(**overrides):
    defaults = dict(
        num_states=2,
        lengths=(256,),
        trials=1,
        seed=5,
        coverage_mean=20.0,
        ftd=FtdConfig(granularity=8),
        em_max_iters=20,
        em_rel_tol=0.001,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerateParams:
    def test_group_structure_and_normalization(self):
        cfg = SynthConfig()
        params = generate_params(cfg, seed=3)
        assert validate_params(params) is params
        p = params.meth_probs
        assert np.all(p[:2] <= 0.3) and np.all(p[:2] >= 0.0)
        assert np.all(p[2:] >= 0.7) and np.all(p[2:] <= 1.0)
        np.testing.assert_allclose(params.transition.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(np.diag(params.transition) >= cfg.diag_weight - 1e-12)

    def test_two_cells_draw_independent_probs(self):
        cfg = SynthConfig(num_cells=2)
        params = generate_params(cfg, seed=4)
        assert params.meth_probs.shape == (2, 4)
        assert not np.allclose(params.meth_probs[0], params.meth_probs[1])

    def test_seed_determinism(self):
        cfg = SynthConfig()
        a = generate_params(cfg, seed=11)
        b = generate_params(cfg, seed=11)
        assert np.array_equal(a.initial_dist, b.initial_dist)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.meth_probs, b.meth_probs)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SynthConfig(num_states=0)
        with pytest.raises(ParameterError):
            SynthConfig(trials=0)
        with pytest.raises(ParameterError):
            SynthConfig(diag_weight=1.5)
        with pytest.raises(ParameterError):
            SynthConfig(lengths=(2,))

    def test_zero_cells_rejected(self):
        with pytest.raises(ParameterError, match="num_cells must be >= 1, got 0"):
            SynthConfig(num_cells=0)

    def test_empty_lengths_rejected(self):
        with pytest.raises(ParameterError, match="at least one benchmark length"):
            SynthConfig(lengths=())


class TestSampleSequence:
    def test_degenerate_probabilities(self):
        zero = HmmParams(
            initial_dist=np.array([1.0]),
            transition=np.array([[1.0]]),
            meth_probs=np.array([0.0]),
        )
        seq = sample_sequence(zero, 200, coverage_mean=10, seed=1)
        assert seq.meth.sum() == 0
        one = HmmParams(
            initial_dist=np.array([1.0]),
            transition=np.array([[1.0]]),
            meth_probs=np.array([1.0]),
        )
        seq = sample_sequence(one, 200, coverage_mean=10, seed=1)
        assert np.array_equal(seq.meth, seq.coverage)

    def test_seed_determinism(self):
        params = generate_params(SynthConfig(), seed=2)
        a = sample_sequence(params, 64, 25, seed=9)
        b = sample_sequence(params, 64, 25, seed=9)
        assert np.array_equal(a.coverage, b.coverage)
        assert np.array_equal(a.meth, b.meth)

    def test_occupancy_matches_stationary_distribution(self):
        # fully separating emissions make the hidden path observable
        params = HmmParams(
            initial_dist=np.array([1.0, 0.0]),
            transition=np.array([[0.7, 0.4], [0.3, 0.6]]),
            meth_probs=np.array([0.0, 1.0]),
        )
        seq = sample_sequence(params, 100_000, coverage_mean=25, seed=3)
        assert seq.coverage.min() > 0
        freq_high = float((seq.meth[:, 0] == seq.coverage[:, 0]).mean())
        target = stationary_oracle(params.transition)[1]
        assert abs(freq_high - target) <= 0.02

    @pytest.mark.parametrize(
        "config,param_seed,length,data_seed,digest",
        [
            (SynthConfig(), 0, 8192, 1,
             "43def021833a78c9dd259558e22cf409222fc3cac39c2cd08a630e1079d62474"),
            (SynthConfig(num_states=6, num_cells=2), 3, 4099, 7,
             "81ead9d7e02905175278098a62a3d2d4eb8eb9117d63c8f48421861831950ddd"),
            # many blocks, a short last one
            (SynthConfig(), 5, 100_003, 11,
             "abaa99454d0bd062c1d839bc15480be2e300a5fdf5dd68c11a6c6e8c124c5a27"),
            (SynthConfig(num_states=6, num_cells=2), 9, 65_537, 4,
             "a7546b9bb2520deb51d8473090cc11523c900ef89a6500164a7c025c6df26404"),
        ],
    )
    def test_output_bytes_are_pinned(self, config, param_seed, length, data_seed, digest):
        # digests of the one-draw-per-position loop the blocked walk replaced
        seq = sample_sequence(generate_params(config, param_seed), length, 25, data_seed)
        raw = seq.coverage.astype(np.int64).tobytes() + seq.meth.astype(np.int64).tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    @pytest.mark.parametrize("num_cells", [1, 2])
    def test_peak_is_near_the_counts_it_returns(self, num_cells):
        # 2**20 rows: 2.02x (one cell) and 1.77x (two) of the returned counts
        # with an intp state path and whole-length probabilities, 1.25x and
        # 1.06x with a narrow path and the counts drawn in steps
        params = generate_params(SynthConfig(num_cells=num_cells), seed=0)
        tracemalloc.start()
        try:
            seq = sample_sequence(params, 1 << 20, 25, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = seq.coverage.nbytes + seq.meth.nbytes
        assert peak < 1.4 * size, f"peak {peak / size:.2f}x the counts"

    @pytest.mark.parametrize("num_cells", [1, 2])
    @pytest.mark.parametrize("num_states", [1, 2, 4, 6, 12])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 10, 17, 26, 101, 4097])
    def test_states_match_sequential_lookup(self, length, num_states, num_cells):
        cfg = SynthConfig(num_states=num_states, num_cells=num_cells)
        params = generate_params(cfg, seed=length + num_states)
        u = np.random.default_rng(length).random(length)
        assert np.array_equal(_hidden_states(params, u), sequential_states(params, u))

    def test_states_with_tied_cumulative_sums(self):
        # zero-probability transitions repeat a sum within a column, and the
        # columns share sums, so the merged sums tie within and across
        # columns; draws sit on, between and above them
        transition = np.array([
            [0.25, 0.0, 0.25, 0.5],
            [0.0, 0.5, 0.25, 0.0],
            [0.25, 0.0, 0.0, 0.5],
            [0.5, 0.5, 0.5, 0.0],
        ])
        params = validate_params(HmmParams(
            initial_dist=np.array([0.0, 0.5, 0.0, 0.5]),
            transition=transition,
            meth_probs=np.array([0.1, 0.4, 0.6, 0.9]),
        ))
        gen = np.random.default_rng(2)
        u = gen.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=4097)
        u[::3] = gen.random(len(u[::3]))
        assert np.array_equal(_hidden_states(params, u), sequential_states(params, u))

    def test_draw_above_a_short_column_sum_stays_in_range(self):
        # columns may fall short of 1 by round-off; a draw above the sum must
        # pick the last state at every position, not only the last one
        short = 1.0 - 5e-13
        params = validate_params(HmmParams(
            initial_dist=np.array([0.5, 0.5 - 5e-13]),
            transition=np.array([[0.5, 0.5], [0.5 - 5e-13, 0.5 - 5e-13]]),
            meth_probs=np.array([0.2, 0.8]),
        ))
        u = np.full(40, short + 2e-13)
        states = _hidden_states(params, u)
        assert np.array_equal(states, np.ones(40, dtype=np.int64))
        assert np.array_equal(states, sequential_states(params, u))

    def test_argument_errors(self):
        params = generate_params(SynthConfig(), seed=0)
        with pytest.raises(ParameterError):
            sample_sequence(params, 0, 25, seed=0)
        with pytest.raises(ParameterError):
            sample_sequence(params, 10, -1.0, seed=0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), 1e19])
    def test_coverage_mean_the_poisson_sampler_refuses(self, mean):
        params = generate_params(SynthConfig(), seed=0)
        with pytest.raises(ParameterError, match="coverage_mean must lie in"):
            sample_sequence(params, 10, mean, seed=0)


class TestStationaryDistribution:
    def test_matches_linear_solve(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            T = rng.uniform(size=(m, m))
            T /= T.sum(axis=0, keepdims=True)
            np.testing.assert_allclose(
                stationary_distribution(T), stationary_oracle(T), atol=1e-8
            )

    def test_symmetric_chain_is_uniform(self):
        T = np.array([[0.6, 0.4], [0.4, 0.6]])
        np.testing.assert_allclose(stationary_distribution(T), [0.5, 0.5], atol=1e-12)


class TestEstimationError:
    def test_identical_vectors(self):
        total, sigma = estimation_error([0.1, 0.9], [0.1, 0.9])
        assert total == pytest.approx(0.0)
        assert list(sigma) == [0, 1]

    def test_swapped_match(self):
        total, sigma = estimation_error([0.1, 0.9], [0.85, 0.12])
        assert total == pytest.approx(0.07)
        assert list(sigma) == [1, 0]

    def test_symmetry(self, rng):
        a = rng.uniform(size=5)
        b = rng.uniform(size=5)
        assert estimation_error(a, b)[0] == pytest.approx(
            estimation_error(b, a)[0], abs=1e-12
        )

    def test_matches_permutation_search(self, rng):
        truth = rng.uniform(size=4)
        est = rng.uniform(size=4)
        total, _ = estimation_error(truth, est)
        best = min(
            sum(abs(truth[h] - est[perm[h]]) for h in range(4))
            for perm in itertools.permutations(range(4))
        )
        assert total == pytest.approx(best, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError, match="equal length"):
            estimation_error([0.1, 0.9], [0.5])


class TestRowSeeds:
    def test_deterministic(self):
        a = _row_seeds(0, 128, 3, "ftd")
        b = _row_seeds(0, 128, 3, "ftd")
        assert np.array_equal(a, b)
        assert a.shape == (3,)

    def test_distinct_across_cells_of_the_sweep(self):
        seen = set()
        for length in (128, 256):
            for trial in range(3):
                for algo in ("ftd", "em"):
                    seen.add(tuple(int(x) for x in _row_seeds(0, length, trial, algo)))
        assert len(seen) == 12

    def test_algorithms_share_nothing(self):
        ftd = _row_seeds(7, 512, 0, "ftd")
        em = _row_seeds(7, 512, 0, "em")
        assert not np.array_equal(ftd, em)


class TestRunBenchmark:
    def test_tiny_sweep_produces_one_row_per_cell(self):
        report = run_benchmark(_tiny_config())
        assert len(report.rows) == 2
        assert {r.algorithm for r in report.rows} == {"ftd", "em"}
        for row in report.rows:
            assert row.length == 256 and row.trial == 0
            assert row.seconds >= 0.0
            if row.status == "ok":
                assert math.isfinite(row.error)
                assert row.recovered_probs is not None
            else:
                assert row.status.startswith("error:")
                assert math.isnan(row.error)

    def test_deterministic_across_runs_and_thread_counts(self):
        cfg = _tiny_config(lengths=(128, 256), trials=2)
        first = run_benchmark(cfg, threads=1)
        second = run_benchmark(cfg, threads=2)
        assert len(first.rows) == len(second.rows)
        by_key = lambda r: (r.length, r.trial, r.algorithm)
        for a, b in zip(sorted(first.rows, key=by_key), sorted(second.rows, key=by_key)):
            assert (a.length, a.trial, a.algorithm) == (b.length, b.trial, b.algorithm)
            assert a.status == b.status
            if a.status == "ok":
                assert a.error == b.error
                assert a.recovered_probs == b.recovered_probs

    def test_rows_agree_across_blas_thread_counts(self):
        src = str(Path(betahmm.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _ROWS_PROBE],
                stdout=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            )
            for threads in ("1", "2")
        ]
        one, two = (json.loads(child.communicate()[0].splitlines()[-1]) for child in children)
        assert [child.returncode for child in children] == [0, 0]
        assert len(one) == len(two) == 4
        for (status_1, error_1, probs_1), (status_2, error_2, probs_2) in zip(one, two):
            assert status_1 == status_2 == "ok"
            assert error_1 == pytest.approx(error_2, rel=0.0, abs=1e-9)
            np.testing.assert_allclose(probs_1, probs_2, rtol=0.0, atol=1e-9)

    def test_fits_run_on_one_blas_thread_and_the_count_is_restored(self, monkeypatch):
        # a row's seconds are its own thread's CPU time, so no BLAS worker may
        # take part of a fit
        calls = _blas._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS thread count cannot be set here")
        get_threads, set_threads = calls
        run_row, seen = synth._run_row, []

        def counted(*args):
            seen.append(get_threads())
            return run_row(*args)

        monkeypatch.setattr(synth, "_run_row", counted)
        before = get_threads()
        set_threads(2)
        try:
            run_benchmark(_tiny_config(), threads=2)
            assert seen == [1, 1]
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_failures_are_recorded_not_raised(self):
        # four states cannot be identified from two triples; the spectral fit
        # must fail cleanly while EM still returns something
        cfg = SynthConfig(
            num_states=4,
            lengths=(4,),
            trials=1,
            seed=1,
            ftd=FtdConfig(granularity=6),
            em_max_iters=5,
        )
        report = run_benchmark(cfg)
        by_algo = {r.algorithm: r for r in report.rows}
        assert by_algo["ftd"].status.startswith("error:")
        assert math.isnan(by_algo["ftd"].error)
        assert by_algo["em"].status == "ok"

    def test_summarize_is_recomputable_from_rows(self):
        cfg = _tiny_config(trials=3)
        report = run_benchmark(cfg)
        summary = {(s["length"], s["algorithm"]): s for s in report.summarize()}
        for algo in ("ftd", "em"):
            errs = report.ok_errors(256, algo)
            entry = summary[(256, algo)]
            assert entry["trials"] == 3
            assert entry["ok"] == errs.size
            if errs.size:
                assert entry["mean_error"] == pytest.approx(float(errs.mean()))
            if errs.size > 1:
                assert entry["std_error"] == pytest.approx(float(errs.std(ddof=1)))

    def test_csv_writers(self, tmp_path):
        report = run_benchmark(_tiny_config())
        rows_path = tmp_path / "report.csv"
        summary_path = tmp_path / "summary.csv"
        report.write_csv(rows_path)
        report.write_summary_csv(summary_path)

        with open(rows_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {"length", "trial", "algorithm", "error", "seconds", "status"}
        for row, src in zip(rows, report.rows):
            assert int(row["length"]) == src.length
            if row["status"] == "ok":
                assert float(row["error"]) == src.error

        with open(summary_path, newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 2
        assert {s["algorithm"] for s in summary} == {"ftd", "em"}

    def test_summary_csv_columns(self, tmp_path):
        report = run_benchmark(_tiny_config())
        path = tmp_path / "summary.csv"
        report.write_summary_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "length,algorithm,trials,ok,mean_error,std_error,mean_seconds"
