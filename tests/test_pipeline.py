import gc
import warnings

import numpy as np
import pytest

from betahmm import (
    BetaMapConfig,
    CountSequence,
    DataError,
    FtdConfig,
    NumericalError,
    ParameterError,
    SynthConfig,
    ftd_fit,
    ftd_fit_moments,
    ftd_then_em,
    generate_params,
    prior_weights,
    sample_sequence,
    validate_params,
)
from betahmm import pipeline
from betahmm.features import feature_table
from betahmm.io import ModelFile, load_model, save_model
from betahmm.moments import MomentAccumulator, MomentSet, _window_fibres, window_sum
from betahmm.spectral import _symmetric_part, pair_spectrum, symmetrize_moments, whiten
from betahmm.synth import _row_seeds
from oracles import chain_joints, dense_symmetric_triple, exact_feature_map, population_moments


def _exact_two_state():
    pi = np.array([2.0 / 3.0, 1.0 / 3.0])
    T = np.array([[0.8, 0.4], [0.2, 0.6]])
    probs = [0.2, 0.8]
    coverage = 50
    C = exact_feature_map(probs, [(coverage, 1.0)], granularity=32)
    moments = population_moments(pi, T, C)
    weight = 1.0 / (coverage + 2.0)
    return pi, T, np.array(probs), moments, weight


def _benchmark_like_sequence(length, seed=0, num_states=2):
    params = generate_params(SynthConfig(num_states=num_states), seed=seed)
    return params, sample_sequence(params, length, 25.0, seed + 1)


def _official_sequence(trial, length=8192):
    """The sequence of one spectral row of the official sweep (master seed 0)."""
    param_seed, data_seed, _ = (int(s) for s in _row_seeds(0, length, trial, "ftd"))
    cfg = SynthConfig()
    params = generate_params(cfg, param_seed)
    return sample_sequence(params, length, cfg.coverage_mean, data_seed)


def _split_moments(seq, granularity):
    """Merged moments and split halves, accumulated as ``ftd_fit`` does."""
    table, index = feature_table(seq, BetaMapConfig(granularity=granularity))
    dim = granularity * seq.num_cells
    half = len(seq) // 2
    acc_a = MomentAccumulator(feature_dim=dim, num_blocks=seq.num_cells)
    acc_a.add_indexed(table, index[:half])
    acc_b = MomentAccumulator(feature_dim=dim, num_blocks=seq.num_cells)
    acc_b.add_indexed(table, index[half - 2 :])
    return acc_a.merge(acc_b).finalize(), (acc_a.finalize(), acc_b.finalize())


def _perturbed(moments, rng, rel):
    """Relative perturbation of every moment."""

    def jitter(x):
        return x * (1.0 + rel * rng.standard_normal(x.shape))

    return MomentSet(
        p12=jitter(moments.p12), p13=jitter(moments.p13),
        p23=jitter(moments.p23), t123=jitter(moments.t123),
        count=moments.count, num_blocks=moments.num_blocks,
    )


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            FtdConfig(granularity=0)
        with pytest.raises(ParameterError, match="integer"):
            FtdConfig(granularity=2.5)
        with pytest.raises(ParameterError):
            FtdConfig(moment_ridge=-1.0)
        for granularity in (float("nan"), float("inf"), 2.5, 0):
            for config in (BetaMapConfig, FtdConfig):
                with pytest.raises(ParameterError, match="granularity must be"):
                    config(granularity=granularity)

    def test_state_count_is_checked_first(self):
        # a two-position sequence would raise DataError; the state count comes first
        with pytest.raises(ParameterError, match="num_states must be >= 1, got 0"):
            ftd_fit(CountSequence([1, 2], [0, 1]), 0)
        _, _, _, moments, weight = _exact_two_state()
        with pytest.raises(ParameterError, match="num_states must be >= 1, got 0"):
            ftd_fit_moments(moments, 0, [weight])


class TestExactMoments:
    def test_population_input_recovers_all_parameters(self):
        pi, T, probs, moments, weight = _exact_two_state()
        model = ftd_fit_moments(
            moments, 2, [weight], FtdConfig(moment_ridge=0.0)
        )
        est = model.per_cell_probs[0]
        for perm in ([0, 1], [1, 0]):
            if abs(est[perm[0]] - probs[0]) + abs(est[perm[1]] - probs[1]) < 0.1:
                break
        assert abs(est[perm[0]] - probs[0]) <= 0.035
        assert abs(est[perm[1]] - probs[1]) <= 0.035
        inv = np.argsort(perm)
        np.testing.assert_allclose(
            model.params.initial_dist[perm], pi, atol=1e-8
        )
        np.testing.assert_allclose(
            model.params.transition[np.ix_(perm, perm)], T, atol=1e-8
        )
        assert model.diagnostics["effective_rank"] == 2
        assert model.diagnostics["duplicated_components"] == []
        assert model.diagnostics["tensor_asymmetry"] <= 1e-8
        assert model.diagnostics["lsq_kkt_residual"] <= 1e-15

    def test_noise_diagnostics_reflect_overrides(self):
        _, _, _, moments, weight = _exact_two_state()
        model = ftd_fit_moments(
            moments, 2, [weight],
            FtdConfig(moment_ridge=0.123),
        )
        assert model.diagnostics["noise_level"] == pytest.approx(0.123)

    def test_zero_floor_writes_null_rank_margins(self, tmp_path):
        _, _, _, moments, weight = _exact_two_state()
        model = ftd_fit_moments(moments, 2, [weight], FtdConfig(moment_ridge=0.0))
        assert model.diagnostics["pair_floor"] == [0.0, 0.0]
        assert model.diagnostics["rank_margins"] == [None, None]
        path = tmp_path / "model.json"
        save_model(
            ModelFile(
                num_states=2, num_cells=1, granularity=32,
                initial_dist=model.params.initial_dist,
                transition=model.params.transition,
                meth_probs=model.per_cell_probs,
                diagnostics=model.diagnostics,
            ),
            path,
        )
        assert "Infinity" not in path.read_text()
        assert load_model(path).diagnostics["rank_margins"] == [None, None]

    @pytest.mark.parametrize("num_blocks", [0, 3])
    def test_block_count_must_divide_dimension(self, num_blocks):
        moments = _exact_two_state()[3]
        with pytest.raises(ParameterError, match="divisible"):
            MomentSet(
                p12=moments.p12, p13=moments.p13, p23=moments.p23, t123=moments.t123,
                count=moments.count, num_blocks=num_blocks,
            )

    def test_missing_tensor_component_is_numerical_failure(self):
        # pair moments of two states, triple moment with the second middle
        # state left out: the whitened tensor has rank one, so its second
        # eigenvalue is zero
        pi, T, probs, moments, weight = _exact_two_state()
        C = exact_feature_map(probs, [(50, 1.0)], granularity=32)
        j123 = chain_joints(pi, T)[3].copy()
        j123[:, 1, :] = 0.0
        lonely = MomentSet(
            p12=moments.p12, p13=moments.p13, p23=moments.p23,
            t123=np.einsum("abc,ia,jb,kc->ijk", j123, C, C, C),
            count=moments.count,
        )
        with pytest.raises(NumericalError, match="no component found"):
            ftd_fit_moments(lonely, 2, [weight], FtdConfig(moment_ridge=0.0))

    def test_prior_weight_count_is_checked(self):
        _, _, _, moments, weight = _exact_two_state()
        with pytest.raises(ParameterError, match="prior weights"):
            ftd_fit_moments(moments, 2, [weight, weight], FtdConfig())


class TestFtdFit:
    def test_too_short(self):
        seq = CountSequence([3, 2], [1, 0])
        with pytest.raises(DataError, match="insufficient length"):
            ftd_fit(seq, 2, FtdConfig(granularity=4))

    def test_triple_count_diagnostic(self):
        _, seq = _benchmark_like_sequence(64)
        model = ftd_fit(seq, 2, FtdConfig(granularity=6))
        assert model.diagnostics["triples"] == 62

    def test_deterministic(self):
        _, seq = _benchmark_like_sequence(300)
        cfg = FtdConfig(granularity=8)
        a = ftd_fit(seq, 2, cfg)
        b = ftd_fit(seq, 2, cfg)
        assert np.array_equal(a.per_cell_probs, b.per_cell_probs)
        assert np.array_equal(a.params.initial_dist, b.params.initial_dist)
        assert np.array_equal(a.params.transition, b.params.transition)
        assert a.diagnostics["effective_rank"] == b.diagnostics["effective_rank"]

    def test_moment_ridge_does_not_move_a_split_half_fit(self):
        # with halves every direction's floor is their disagreement
        _, seq = _benchmark_like_sequence(512)
        plain = ftd_fit(seq, 2, FtdConfig())
        ridged = ftd_fit(seq, 2, FtdConfig(moment_ridge=0.5))
        for name in ("initial_dist", "transition", "meth_probs"):
            assert np.array_equal(getattr(plain.params, name), getattr(ridged.params, name))
        assert plain.diagnostics["pair_floor"] == ridged.diagnostics["pair_floor"]
        assert "noise_level" not in plain.diagnostics
        assert "noise_level" not in ridged.diagnostics

    def test_two_cell_shapes(self):
        cfg = SynthConfig(num_states=2, num_cells=2)
        params = generate_params(cfg, seed=8)
        seq = sample_sequence(params, 600, 20.0, seed=9)
        model = ftd_fit(seq, 2, FtdConfig(granularity=6))
        assert model.per_cell_probs.shape == (2, 2)
        assert model.params.meth_probs.shape == (2, 2)
        assert model.prior_weights.shape == (2,)
        assert model.feature_means.shape == (12, 2)

    def test_degraded_rank_pads_with_duplicates(self):
        # a nearly uncorrelated chain leaves most pair directions below the
        # sampling noise, so the fit must fall back to fewer components
        seeds = np.random.SeedSequence((55, 1)).generate_state(3)
        cfg = SynthConfig(num_states=4, diag_weight=0.05)
        params = generate_params(cfg, int(seeds[0]))
        seq = sample_sequence(params, 1024, 25.0, int(seeds[1]))
        model = ftd_fit(seq, 4, FtdConfig())
        rank = model.diagnostics["effective_rank"]
        extras = model.diagnostics["duplicated_components"]
        assert rank == 2
        assert extras == [1, 0]
        assert validate_params(model.params) is model.params
        # padded states are exact copies of the components they duplicate
        probs = model.per_cell_probs[0]
        assert probs[2] == probs[extras[0]]
        assert probs[3] == probs[extras[1]]
        np.testing.assert_array_equal(
            model.feature_means[:, 2], model.feature_means[:, extras[0]]
        )


class TestObservability:
    def test_distinct_keys_and_timings_reach_the_model_file(self, tmp_path):
        params = generate_params(SynthConfig(num_states=2, num_cells=2), seed=8)
        seq = sample_sequence(params, 600, 20.0, seed=9)
        model = ftd_fit(seq, 2, FtdConfig(granularity=6))
        expected = [
            len(set(zip(seq.coverage[:, j].tolist(), seq.meth[:, j].tolist())))
            for j in range(2)
        ]
        diag = model.diagnostics
        assert diag["distinct_keys"] == expected
        assert list(diag["timings"]) == ["moments_s", "spectral_s", "recovery_s"]
        assert all(seconds >= 0.0 for seconds in diag["timings"].values())
        path = tmp_path / "model.json"
        save_model(
            ModelFile(
                num_states=2,
                num_cells=2,
                granularity=6,
                initial_dist=model.params.initial_dist,
                transition=model.params.transition,
                meth_probs=model.per_cell_probs,
                prior_weights=model.prior_weights,
                diagnostics=diag,
            ),
            path,
        )
        loaded = load_model(path).diagnostics
        assert loaded["distinct_keys"] == expected
        assert loaded["timings"] == diag["timings"]


class TestMomentPassMemory:
    def test_no_accumulator_outlives_the_moment_pass(self, monkeypatch):
        def live_accumulators():
            gc.collect()
            return sum(isinstance(o, MomentAccumulator) for o in gc.get_objects())

        during = []

        def spy(*args, **kwargs):
            during.append(live_accumulators())
            return symmetrize_moments(*args, **kwargs)

        monkeypatch.setattr(pipeline, "symmetrize_moments", spy)
        _, seq = _benchmark_like_sequence(2000)
        before = live_accumulators()
        ftd_fit(seq, 2, FtdConfig(granularity=8))
        assert during == [before]


class TestDecompositionDependsOnDataOnly:
    # trials whose fit moved by up to 0.7 in a probability with the
    # power-method seed or with last-bit round-off of the moments

    @pytest.mark.parametrize("trial", [9, 10])
    def test_fit_is_stable_under_round_off(self, trial):
        seq = _official_sequence(trial)
        cfg = FtdConfig()
        moments, halves = _split_moments(seq, cfg.granularity)
        weights = prior_weights(seq)
        base = ftd_fit_moments(moments, 4, weights, cfg, split_halves=halves)
        np.testing.assert_allclose(
            base.per_cell_probs, ftd_fit(seq, 4, cfg).per_cell_probs, rtol=0, atol=1e-10
        )
        assert base.diagnostics["effective_rank"] == 4
        rng = np.random.default_rng(0)
        for _ in range(3):
            moved = ftd_fit_moments(
                _perturbed(moments, rng, 1e-12), 4, weights, cfg, split_halves=halves
            )
            np.testing.assert_allclose(
                moved.per_cell_probs, base.per_cell_probs, rtol=0.0, atol=1e-8
            )

    def test_diagnostics_describe_the_decomposition(self):
        model = ftd_fit(_official_sequence(9), 4, FtdConfig())
        diag = model.diagnostics
        lams = np.asarray(diag["eigenvalues"])
        assert lams.shape == (4,)
        assert np.all(lams > 0.0)
        assert np.all(np.diff(lams) <= 0.0)
        residuals = diag["tensor_residuals"]
        assert len(residuals) == 4
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert diag["tensor_asymmetry"] > 0.0
        assert diag["feature_clamp_mass"] >= 0.0
        assert 0 <= diag["sign_flips"] <= 4


class TestKeyedPassMatchesDenseMoments:
    # ftd_fit contracts the triple straight from the keys, ftd_fit_moments
    # from a dense moment set: the fits differ only in round-off

    @pytest.mark.parametrize("trial", [9, 10])
    def test_one_cell(self, trial):
        seq = _official_sequence(trial)
        self._assert_same_fit(seq, 4, FtdConfig())

    def test_two_cells(self):
        params = generate_params(SynthConfig(num_states=3, num_cells=2), seed=8)
        seq = sample_sequence(params, 4000, 20.0, seed=9)
        self._assert_same_fit(seq, 3, FtdConfig(granularity=8))

    @staticmethod
    def _assert_same_fit(seq, num_states, cfg):
        moments, halves = _split_moments(seq, cfg.granularity)
        dense = ftd_fit_moments(moments, num_states, prior_weights(seq), cfg, split_halves=halves)
        keyed = ftd_fit(seq, num_states, cfg)
        assert keyed.diagnostics["effective_rank"] == dense.diagnostics["effective_rank"]
        for name in ("per_cell_probs", "feature_means"):
            np.testing.assert_allclose(
                getattr(keyed, name), getattr(dense, name), rtol=0, atol=1e-10, err_msg=name
            )
        np.testing.assert_allclose(
            keyed.params.transition, dense.params.transition, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("cells", [1, 2])
    def test_contractions_match_a_dense_symmetric_triple(self, cells):
        params = generate_params(SynthConfig(num_states=3, num_cells=cells), seed=3)
        seq = sample_sequence(params, 3000, 20.0, seed=4)
        table, index = feature_table(seq, BetaMapConfig(granularity=6))
        acc = MomentAccumulator(6 * cells, num_blocks=cells).add_indexed(table, index)
        moments = acc.finalize()
        s1, s3 = symmetrize_moments(moments.p12, moments.p13, moments.p23, 3)
        w = whiten(pair_spectrum(s3, moments.p32), 3).w
        g, _ = dense_symmetric_triple(moments, s1, s3)

        def fibres(x, y, z):
            return [s / moments.count for s in _window_fibres(table, index, x, y, z)]

        h = _symmetric_part(window_sum(table, index, s1.T @ w, w, s3.T @ w) / moments.count)
        dense_h = np.einsum("abc,ai,bj,ck->ijk", g, w, w, w)
        np.testing.assert_allclose(h, dense_h, rtol=0, atol=1e-12 * np.abs(dense_h).max())
        u = w @ np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        dense_readout = np.einsum("abk,al,bl->kl", g, u, u)
        np.testing.assert_allclose(
            pipeline._readout(fibres, s1, s3, u), dense_readout,
            rtol=0, atol=1e-12 * np.abs(dense_readout).max(),
        )


class TestFtdThenEm:
    def test_zero_rounds_wraps_spectral_params(self):
        _, seq = _benchmark_like_sequence(300)
        cfg = FtdConfig(granularity=8)
        base = ftd_fit(seq, 2, cfg)
        model, trace = ftd_then_em(seq, 2, cfg, rounds=0)
        assert np.array_equal(model.per_cell_probs, base.per_cell_probs)
        assert trace.iterations == 0
        assert trace.log_likelihoods == []
        assert np.array_equal(trace.params.meth_probs, base.params.meth_probs)
        assert np.array_equal(trace.params.transition, base.params.transition)

    def test_refinement_rounds_are_monotone(self):
        _, seq = _benchmark_like_sequence(300)
        _, trace = ftd_then_em(seq, 2, FtdConfig(granularity=8), rounds=3)
        assert trace.iterations == 3
        lls = trace.log_likelihoods
        assert len(lls) == 3
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))
        assert validate_params(trace.params) is trace.params

    def test_warm_start_from_a_transition_with_zeros(self):
        # the sticky protocol's trial 13 at 8192, with the EM row's seeds: the
        # spectral T has two absorbing states and one closed pair
        cfg = SynthConfig(trials=20, seed=0, diag_weight=0.8)
        param_seed, data_seed, _ = (int(s) for s in _row_seeds(0, 8192, 13, "em"))
        seq = sample_sequence(generate_params(cfg, param_seed), 8192, cfg.coverage_mean, data_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, trace = ftd_then_em(seq, 4, rounds=3)
        assert np.count_nonzero(model.params.transition == 0.0) > 0
        lls = trace.log_likelihoods
        assert len(lls) == 3
        assert np.all(np.isfinite(lls))
        assert all(b >= a - 1e-8 for a, b in zip(lls, lls[1:]))

    def test_negative_rounds(self):
        _, seq = _benchmark_like_sequence(64)
        with pytest.raises(ParameterError, match="rounds"):
            ftd_then_em(seq, 2, FtdConfig(granularity=6), rounds=-1)
