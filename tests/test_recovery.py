import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import betahmm.pipeline as pipeline
import betahmm.recovery as recovery
from betahmm import (
    FtdConfig,
    HmmParams,
    NumericalError,
    ParameterError,
    SynthConfig,
    ftd_fit,
    generate_params,
    sample_sequence,
)
from betahmm.recovery import (
    StateJoint,
    chain_from_joint,
    chain_via_pinv,
    differential_states,
    estimate_joint_lsq,
    recover_meth_probs,
)
from betahmm.synth import _row_seeds
from oracles import exact_feature_map, simplex_lsq_by_enumeration


class TestRecoverMethProbs:
    def test_point_mass_on_top_bin_maps_past_one(self):
        # the top bin's midpoint is 0.75: (0.75 - 0.3) / (1 - 0.6) = 1.125
        means = np.array([[0.0], [1.0]])
        probs, raw = recover_meth_probs(means, [0.3], granularity=2)
        assert raw[0, 0] == pytest.approx(1.125)
        assert probs[0, 0] == 1.0

    def test_uniform_column_with_quarter_weight(self):
        # midpoints 0.25 and 0.75 average to 0.5: (0.5 - 0.25) / 0.5 = 0.5
        means = np.array([[0.5], [0.5]])
        probs, raw = recover_meth_probs(means, [0.25], granularity=2)
        assert raw[0, 0] == pytest.approx(0.5)
        assert probs[0, 0] == pytest.approx(0.5)

    def test_symmetric_column_lands_near_half(self):
        granularity = 16
        col = np.zeros(granularity)
        col[7] = 0.5
        col[8] = 0.5
        probs, _ = recover_meth_probs(col[:, None], [0.1], granularity=granularity)
        assert abs(probs[0, 0] - 0.5) <= 1.0 / granularity

    def test_exact_map_recovers_planted_probs(self):
        granularity = 64
        coverage = 50
        C = exact_feature_map([0.2, 0.8], [(coverage, 1.0)], granularity)
        weight = 1.0 / (coverage + 2.0)
        probs, _ = recover_meth_probs(C, [weight], granularity=granularity)
        np.testing.assert_allclose(
            probs[0], [0.2, 0.8], atol=1.0 / granularity + 1e-6
        )

    def test_exact_single_coverage_map_has_no_readout_bias(self):
        granularity = 64
        coverage = 50
        C = exact_feature_map([0.2, 0.8], [(coverage, 1.0)], granularity)
        probs, _ = recover_meth_probs(C, [1.0 / (coverage + 2.0)], granularity=granularity)
        np.testing.assert_allclose(probs[0], [0.2, 0.8], rtol=0.0, atol=1e-6)

    def test_exact_official_moments_read_out_without_bias(self):
        # the 20 planted models of the official sweep, with exact per-state
        # feature means under Poisson(25) coverage; bin right edges would add
        # about 1 / (2 * 30) to every probability
        granularity = 30
        coverage = np.arange(71)
        weights = poisson.pmf(coverage, 25.0)
        weights /= weights.sum()
        prior = float(np.sum(weights / (coverage + 2.0)))
        truth = np.stack([
            generate_params(SynthConfig(), int(_row_seeds(0, 8192, t, "ftd")[0])).meth_probs
            for t in range(20)
        ])
        coverage_dist = list(zip(coverage.tolist(), weights.tolist()))
        C = exact_feature_map(truth.ravel(), coverage_dist, granularity)
        probs, _ = recover_meth_probs(C, [prior], granularity=granularity)
        per_model = np.abs(probs[0] - truth.ravel()).reshape(truth.shape).max(axis=1)
        assert per_model.max() <= 3e-3

    @pytest.mark.parametrize("granularity,eps", [(160, 0.1), (320, 0.05)])
    def test_bias_shrinks_with_granularity(self, granularity, eps):
        coverage = 800
        truth = [0.1, 0.9]
        C = exact_feature_map(truth, [(coverage, 1.0)], granularity)
        weight = 1.0 / (coverage + 2.0)
        probs, _ = recover_meth_probs(C, [weight], granularity=granularity)
        assert np.abs(probs[0] - truth).max() <= eps

    def test_two_cells(self):
        top = np.array([0.0, 1.0])
        means = np.concatenate([top, top])[:, None]
        probs, raw = recover_meth_probs(means, [0.25, 0.1], granularity=2)
        assert probs.shape == (2, 1)
        assert raw[0, 0] == pytest.approx(1.0)
        assert raw[1, 0] == pytest.approx(0.65 / 0.8)

    def test_weight_out_of_range(self):
        means = np.array([[0.5], [0.5]])
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ParameterError, match="prior weight"):
                recover_meth_probs(means, [bad], granularity=2)

    def test_weight_count_mismatch(self):
        means = np.full((4, 1), 0.25)
        with pytest.raises(ParameterError, match="prior weights"):
            recover_meth_probs(means, [0.25], granularity=2)

    def test_block_sum_violation(self):
        means = np.array([[0.5], [0.6]])
        with pytest.raises(ParameterError, match="sums to"):
            recover_meth_probs(means, [0.25], granularity=2)

    def test_granularity_must_divide(self):
        means = np.full((6, 1), 1.0 / 6.0) * 6 / 6
        with pytest.raises(ParameterError, match="divide"):
            recover_meth_probs(np.full((6, 1), 0.25), [0.25], granularity=4)


class TestEstimateJointLsq:
    def test_orthonormal_features_recover_planted_joint(self, rng):
        m = 3
        q, _ = np.linalg.qr(rng.standard_normal((7, m)))
        truth = rng.dirichlet(np.ones(m * m)).reshape(m, m)
        p21 = q @ truth @ q.T
        joint = estimate_joint_lsq(p21, q)
        np.testing.assert_allclose(joint.matrix, truth, atol=1e-6)
        assert joint.objective <= 1e-10
        assert joint.kkt_residual <= 1e-15

    def test_single_state(self):
        c = np.array([[0.3], [0.7]])
        joint = estimate_joint_lsq(c @ c.T, c)
        np.testing.assert_allclose(joint.matrix, [[1.0]], atol=1e-9)

    def test_result_is_always_a_distribution(self, rng):
        c = rng.uniform(size=(6, 2))
        c /= c.sum(axis=0)
        noisy = rng.standard_normal((6, 6)) * 0.05 + 0.1
        joint = estimate_joint_lsq(noisy, c)
        assert joint.matrix.min() >= 0.0
        assert joint.matrix.sum() == pytest.approx(1.0, abs=1e-9)

    def test_never_worse_than_uniform_start(self, rng):
        m = 2
        c = rng.uniform(size=(5, m))
        p21 = rng.uniform(size=(5, 5)) * 0.04
        joint = estimate_joint_lsq(p21, c)
        uniform = np.full((m, m), 1.0 / (m * m))
        baseline = float(np.linalg.norm(p21 - c @ uniform @ c.T) ** 2)
        assert joint.objective <= baseline + 1e-12

    def test_duplicate_columns_are_rejected(self):
        c = np.column_stack([np.full(4, 0.25), np.full(4, 0.25)])
        with pytest.raises(NumericalError, match="rank deficient"):
            estimate_joint_lsq(np.eye(4) / 4.0, c)

    def test_shape_mismatch(self):
        c = np.full((4, 2), 0.25)
        with pytest.raises(ParameterError, match="shape"):
            estimate_joint_lsq(np.eye(3), c)

    @given(st.integers(1, 3), st.integers(0, 4), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_support_enumeration(self, m, extra_dim, noise, seed):
        gen = np.random.default_rng(seed)
        c = gen.uniform(size=(m + 2 + extra_dim, m))
        c /= c.sum(axis=0)
        truth = gen.dirichlet(np.full(m * m, 0.5)).reshape(m, m)
        p21 = c @ truth @ c.T
        p21 = p21 + noise * np.abs(p21).max() * gen.standard_normal(p21.shape)
        joint = estimate_joint_lsq(p21, c)
        expected, best = simplex_lsq_by_enumeration(p21, c)
        assert joint.objective == pytest.approx(best, rel=1e-12)
        assert joint.matrix.min() >= 0.0
        assert abs(joint.matrix.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(joint.matrix, expected, atol=1e-8)
        assert joint.kkt_residual <= 1e-12 * np.abs(c.T @ p21 @ c).max()

    def test_step_bound_raises_instead_of_returning(self, rng, monkeypatch):
        c = rng.uniform(size=(6, 3))
        c /= c.sum(axis=0)
        p21 = c @ np.diag([0.9, 0.1, 0.0]) @ c.T
        assert estimate_joint_lsq(p21, c).iterations > 1
        monkeypatch.setattr(recovery, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match="active-set steps"):
            estimate_joint_lsq(p21, c)

    def test_two_cell_six_state_fit_satisfies_kkt(self, monkeypatch):
        # the model of acceptance criterion 10; a 5,000-step projected-gradient
        # loop stopped at its cap on this input
        p_a = np.array([0.20, 0.10, 0.35, 0.55, 0.70, 0.90])
        p_b = np.array([0.80, 0.12, 0.30, 0.60, 0.65, 0.85])
        gen = np.random.default_rng(7)
        m = 6
        u = gen.uniform(size=(m, m))
        u /= u.sum(axis=0, keepdims=True)
        T = 0.5 * np.eye(m) + 0.5 * u
        T /= T.sum(axis=0, keepdims=True)
        pi = gen.dirichlet(np.ones(m))
        params = HmmParams(initial_dist=pi, transition=T, meth_probs=np.stack([p_a, p_b]))
        seq = sample_sequence(params, 100_000, 25.0, seed=11)
        calls = []

        def spy(p21, c):
            calls.append((p21, c, estimate_joint_lsq(p21, c)))
            return calls[-1][2]

        monkeypatch.setattr(pipeline, "estimate_joint_lsq", spy)
        model = ftd_fit(seq, m, FtdConfig(granularity=12))
        ((p21, c, joint),) = calls
        assert joint.matrix.shape == (m, m)
        assert joint.matrix.min() >= 0.0
        assert abs(joint.matrix.sum() - 1.0) <= 1e-12
        assert model.diagnostics["lsq_kkt_residual"] == joint.kkt_residual
        # stationarity on the free entries, non-negative multipliers elsewhere
        gram = c.T @ c
        q = (c.T @ p21 @ c).ravel()
        grad = np.kron(gram, gram) @ joint.matrix.ravel() - q
        free = joint.matrix.ravel() > 0.0
        shift = -grad[free].mean()
        scale = np.abs(q).max()
        assert joint.kkt_residual <= 1e-9 * scale
        assert np.abs(grad[free] + shift).max() <= 1e-9 * scale
        assert (grad[~free] + shift).min() >= -1e-9 * scale


class TestChainFromJoint:
    def test_uniform_joint(self):
        pi, T = chain_from_joint(np.full((2, 2), 0.25))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(T, np.full((2, 2), 0.5), atol=1e-12)

    def test_diagonal_joint_gives_identity_transition(self):
        pi, T = chain_from_joint(np.diag([0.5, 0.5]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(T, np.eye(2), atol=1e-12)

    def test_factored_joint_roundtrip(self):
        pi_true = np.array([0.3, 0.7])
        T_true = np.array([[0.9, 0.2], [0.1, 0.8]])
        joint = T_true * pi_true[None, :]
        pi, T = chain_from_joint(joint)
        np.testing.assert_allclose(pi, pi_true, atol=1e-10)
        np.testing.assert_allclose(T, T_true, atol=1e-10)

    def test_accepts_state_joint_wrapper(self):
        wrapped = StateJoint(
            matrix=np.full((2, 2), 0.25), objective=0.0, iterations=1, kkt_residual=0.0
        )
        pi, _ = chain_from_joint(wrapped)
        np.testing.assert_allclose(pi, [0.5, 0.5])

    def test_empty_column_gets_floored_and_uniform(self):
        joint = np.array([[0.5, 0.0], [0.5, 0.0]])
        pi, T = chain_from_joint(joint)
        assert pi[1] == pytest.approx(1e-8, rel=1e-3)
        np.testing.assert_allclose(T[:, 1], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(T[:, 0], [0.5, 0.5], atol=1e-12)

    def test_invalid_joints(self):
        with pytest.raises(ParameterError, match="square"):
            chain_from_joint(np.full((2, 3), 1.0 / 6.0))
        with pytest.raises(ParameterError, match="negative"):
            chain_from_joint(np.array([[1.2, 0.0], [0.0, -0.2]]))
        with pytest.raises(ParameterError, match="sum"):
            chain_from_joint(np.full((2, 2), 0.5))


class TestChainViaPinv:
    def test_one_hot_features_are_exact(self):
        pi_true = np.array([0.3, 0.7])
        T_true = np.array([[0.9, 0.2], [0.1, 0.8]])
        joint = T_true * pi_true[None, :]
        pi, T, clamp = chain_via_pinv(joint, np.eye(2))
        np.testing.assert_allclose(pi, pi_true, atol=1e-10)
        np.testing.assert_allclose(T, T_true, atol=1e-10)
        assert clamp == 0.0

    def test_agreement_with_lsq_on_exact_inputs(self, rng):
        m = 2
        C = exact_feature_map([0.2, 0.8], [(8, 1.0)], granularity=8)
        truth = rng.dirichlet(np.ones(m * m)).reshape(m, m)
        p21 = C @ truth @ C.T
        pi_a, T_a, clamp = chain_via_pinv(p21, C)
        joint = estimate_joint_lsq(p21, C)
        pi_b, T_b = chain_from_joint(joint)
        assert clamp <= 1e-8
        np.testing.assert_allclose(pi_a, pi_b, atol=1e-5)
        np.testing.assert_allclose(T_a, T_b, atol=1e-5)

    def test_rank_deficiency(self):
        c = np.column_stack([np.full(4, 0.25), np.full(4, 0.25)])
        with pytest.raises(NumericalError, match="rank deficient"):
            chain_via_pinv(np.eye(4) / 4.0, c)


class TestDifferentialStates:
    def test_identical_cells_flag_nothing(self):
        probs = np.array([[0.2, 0.8], [0.2, 0.8]])
        assert differential_states(probs, 0.3) == []

    def test_single_flagged_state(self):
        probs = np.array([[0.132, 0.95], [0.752, 0.913]])
        assert differential_states(probs, 0.3) == [0]

    def test_zero_threshold_sorts_by_gap(self):
        probs = np.array([[0.1, 0.5, 0.3], [0.2, 0.1, 0.3]])
        assert differential_states(probs, 0.0) == [1, 0, 2]

    def test_boundary_gap_is_included(self):
        probs = np.array([[0.2, 0.0], [0.5, 0.0]])
        assert differential_states(probs, 0.3) == [0]

    def test_requires_two_cells(self):
        with pytest.raises(ParameterError, match="two cell types"):
            differential_states(np.zeros((3, 4)), 0.3)
        with pytest.raises(ParameterError, match="two cell types"):
            differential_states(np.zeros(4), 0.3)

    def test_threshold_range(self):
        probs = np.zeros((2, 3))
        with pytest.raises(ParameterError, match="threshold"):
            differential_states(probs, 1.5)
        with pytest.raises(ParameterError, match="threshold"):
            differential_states(probs, -0.1)
