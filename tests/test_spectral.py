import numpy as np
import pytest

from betahmm import NumericalError, ParameterError
from betahmm.moments import MomentAccumulator, MomentSet
from betahmm.spectral import (
    DecompositionResult,
    _pinv,
    _symmetric_part,
    joint_diagonalization,
    pair_spectrum,
    recover_feature_means,
    symmetrize_moments,
    tensor_power_method,
    whiten,
)
from oracles import dense_symmetric_triple, exact_feature_map, population_moments


def _column_wise(T):
    return np.asarray(T, dtype=float)


class TestPinv:
    def test_matches_numpy_on_full_rank(self, rng):
        mat = rng.standard_normal((5, 3))
        out, rank = _pinv(mat)
        np.testing.assert_allclose(out, np.linalg.pinv(mat), atol=1e-12)
        assert rank == 3

    def test_rank_truncation_on_diagonal(self):
        mat = np.diag([4.0, 2.0, 1.0])
        out, rank = _pinv(mat, rank=2)
        np.testing.assert_allclose(out, np.diag([0.25, 0.5, 0.0]), atol=1e-14)
        assert rank == 3  # the effective rank, not the truncation

    def test_truncation_drops_tiny_directions(self):
        mat = np.diag([1.0, 1e-14])
        out, rank = _pinv(mat)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
        assert rank == 1

    def test_zero_matrix_has_rank_zero(self):
        out, rank = _pinv(np.zeros((3, 2)))
        assert rank == 0
        np.testing.assert_array_equal(out, np.zeros((2, 3)))


class TestSymmetrize:
    def _manual_moments(self):
        p13 = np.eye(2) / 2.0
        p23 = np.array([[0.3, 0.2], [0.1, 0.4]])
        p12 = np.array([[0.25, 0.25], [0.3, 0.2]])
        t123 = np.full((2, 2, 2), 0.125)
        return MomentSet(
            p12=p12,
            p13=p13,
            p23=p23,
            t123=t123,
            count=10,
        )

    def test_scaled_identity_pair_inverts_exactly(self):
        ms = self._manual_moments()
        s1, s3 = symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states=2)
        np.testing.assert_allclose(s1, 2.0 * ms.p23, atol=1e-12)
        np.testing.assert_allclose(s3, 2.0 * ms.p21, atol=1e-12)

    def test_population_tensor_is_symmetric(self):
        pi = np.array([0.5, 0.3, 0.2])
        T = _column_wise([[0.6, 0.2, 0.2], [0.2, 0.7, 0.2], [0.2, 0.1, 0.6]])
        ms = population_moments(pi, T, np.eye(3))
        s1, s3 = symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states=3)
        _, asymmetry = dense_symmetric_triple(ms, s1, s3)
        assert asymmetry <= 1e-10

    def test_rank_deficient_pair_is_rejected(self):
        # five windows whose three feature vectors are all e1
        acc = MomentAccumulator(3).add_indexed(np.eye(3)[:1], np.zeros((7, 1), dtype=np.int64))
        ms = acc.finalize()
        with pytest.raises(NumericalError, match="rank condition violated"):
            symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states=2)


class TestWhiten:
    def test_diagonal_pair_gives_inverse_root_scaling(self):
        s3 = np.eye(2)
        p32 = np.diag([4.0, 1.0])
        data = whiten(pair_spectrum(s3, p32), num_states=2)
        np.testing.assert_allclose(data.w, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(data.singular_values, [4.0, 1.0], atol=1e-12)

    def test_whitening_contract(self):
        pi = np.array([0.4, 0.35, 0.25])
        T = _column_wise([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]])
        ms = population_moments(pi, T, np.eye(3))
        _, s3 = symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states=3)
        data = whiten(pair_spectrum(s3, ms.p32), num_states=3)
        gram = data.w.T @ data.pair_matrix @ data.w
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_given_eigenpairs_give_the_same_bits(self):
        pi = np.array([0.4, 0.35, 0.25])
        T = _column_wise([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]])
        ms = population_moments(pi, T, np.eye(3))
        _, s3 = symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states=3)
        spectrum = pair_spectrum(s3, ms.p32)
        pair_sym, vals, vecs = spectrum
        kept = vecs.copy()
        full = whiten(spectrum, num_states=3)
        reduced = whiten(spectrum, num_states=2)
        # whitening reads the eigenpairs it is given and leaves them intact
        assert np.array_equal(spectrum[2], kept)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.array_equal(np.abs(full.w), np.abs(vecs) / np.sqrt(vals)[None, :])
        assert np.array_equal(reduced.w, full.w[:, :2])
        assert reduced.pair_matrix is pair_sym

    def test_rank_deficient_pair_raises(self):
        s3 = np.eye(2)
        p32 = np.outer([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(NumericalError, match="whitening failed"):
            whiten(pair_spectrum(s3, p32), num_states=2)


class TestTensorPowerMethod:
    def test_single_rank_one_component(self):
        h = np.zeros((3, 3, 3))
        h[0, 0, 0] = 2.0
        result = tensor_power_method(h, 1, seed=0)
        assert result.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(
            np.abs(result.eigenvectors[:, 0]), [1.0, 0.0, 0.0], atol=1e-10
        )
        assert result.input_norm == pytest.approx(2.0)

    def test_planted_orthogonal_pair(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        h = 3.0 * np.einsum("i,j,k->ijk", q[:, 0], q[:, 0], q[:, 0])
        h += 1.0 * np.einsum("i,j,k->ijk", q[:, 1], q[:, 1], q[:, 1])
        result = tensor_power_method(h, 2, iters_per_component=100, seed=1)
        assert result.eigenvalues[0] == pytest.approx(3.0, abs=1e-6)
        assert result.eigenvalues[1] == pytest.approx(1.0, abs=1e-6)
        for comp in range(2):
            v = result.eigenvectors[:, comp]
            truth = q[:, comp]
            assert min(
                np.linalg.norm(v - truth), np.linalg.norm(v + truth)
            ) <= 1e-6

    def test_eigenvectors_are_orthonormal(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        h = sum(
            lam * np.einsum("i,j,k->ijk", q[:, i], q[:, i], q[:, i])
            for i, lam in enumerate([4.0, 2.0, 1.0])
        )
        result = tensor_power_method(h, 3, iters_per_component=100, seed=3)
        gram = result.eigenvectors.T @ result.eigenvectors
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_deflation_residuals_decrease_to_zero(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        h = 3.0 * np.einsum("i,j,k->ijk", q[:, 0], q[:, 0], q[:, 0])
        h += 1.0 * np.einsum("i,j,k->ijk", q[:, 1], q[:, 1], q[:, 1])
        result = tensor_power_method(h, 2, iters_per_component=100, seed=1)
        norms = result.residual_norms
        assert len(norms) == 2
        assert norms[0] < result.input_norm
        assert norms[1] < norms[0]
        assert norms[1] <= 1e-6

    def test_deterministic_for_fixed_seed(self, rng):
        h = rng.standard_normal((4, 4, 4))
        h = (h + h.transpose(1, 0, 2)) / 2
        first = tensor_power_method(h, 2, seed=42)
        second = tensor_power_method(h, 2, seed=42)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_zero_tensor(self):
        with pytest.raises(NumericalError, match="no component found"):
            tensor_power_method(np.zeros((3, 3, 3)), 1, seed=0)

    def test_shape_and_argument_errors(self):
        with pytest.raises(ParameterError, match="cubic"):
            tensor_power_method(np.zeros((2, 3, 2)), 1)
        h = np.zeros((3, 3, 3))
        with pytest.raises(ParameterError, match="num_components"):
            tensor_power_method(h, 0)
        with pytest.raises(ParameterError, match="num_components"):
            tensor_power_method(h, 4)
        with pytest.raises(ParameterError):
            tensor_power_method(h, 1, iters_per_component=0)


def _planted(q, lams):
    return sum(
        lam * np.einsum("i,j,k->ijk", q[:, i], q[:, i], q[:, i])
        for i, lam in enumerate(lams)
    )


class TestJointDiagonalization:
    def test_planted_components_in_descending_order(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lams = [1.0, 3.0, 0.5, 2.0]
        result = joint_diagonalization(_planted(q, lams))
        np.testing.assert_allclose(result.eigenvalues, [3.0, 2.0, 1.0, 0.5], atol=1e-10)
        for comp, src in enumerate([1, 3, 0, 2]):
            v = result.eigenvectors[:, comp]
            assert min(
                np.linalg.norm(v - q[:, src]), np.linalg.norm(v + q[:, src])
            ) <= 1e-10
        gram = result.eigenvectors.T @ result.eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_negative_weights_are_flipped_positive(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        result = joint_diagonalization(_planted(q, [-2.0, 1.0, -0.5]))
        np.testing.assert_allclose(result.eigenvalues, [2.0, 1.0, 0.5], atol=1e-10)
        # a negative weight is the positive one on the flipped vector
        np.testing.assert_allclose(result.eigenvectors[:, 0], -q[:, 0], atol=1e-10)
        np.testing.assert_allclose(result.eigenvectors[:, 1], q[:, 1], atol=1e-10)
        np.testing.assert_allclose(result.eigenvectors[:, 2], -q[:, 2], atol=1e-10)

    def test_residuals_follow_the_components(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        h = _planted(q, [3.0, 2.0, 1.0])
        result = joint_diagonalization(h)
        assert result.input_norm == pytest.approx(np.sqrt(14.0))
        np.testing.assert_allclose(
            result.residual_norms, [np.sqrt(5.0), 1.0, 0.0], atol=1e-10
        )

    def test_continuous_under_round_off(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        h = _planted(q, [4.0, 3.0, 2.0, 1.0])
        noisy = h + 1e-6 * _symmetric_part(rng.standard_normal(h.shape))
        base = joint_diagonalization(noisy)
        moved = joint_diagonalization(noisy * (1.0 + 1e-13 * rng.standard_normal(h.shape)))
        np.testing.assert_allclose(moved.eigenvalues, base.eigenvalues, atol=1e-10)
        np.testing.assert_allclose(moved.eigenvectors, base.eigenvectors, atol=1e-10)

    def test_zero_tensor(self):
        with pytest.raises(NumericalError, match="no component found"):
            joint_diagonalization(np.zeros((3, 3, 3)))

    def test_non_finite_input(self):
        h = np.zeros((2, 2, 2))
        h[0, 1, 1] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            joint_diagonalization(h)

    def test_shape_errors(self):
        with pytest.raises(ParameterError, match="cubic"):
            joint_diagonalization(np.zeros((2, 3, 2)))


class TestRecoverFeatureMeans:
    def test_readout_column_is_normalized(self):
        result = DecompositionResult(
            eigenvalues=np.array([1.0]),
            eigenvectors=np.array([[0.25], [0.75]]),
        )
        means = recover_feature_means(result, np.array([[0.5], [1.5]]))
        np.testing.assert_allclose(means[:, 0], [0.25, 0.75], atol=1e-12)
        assert result.clamp_mass == 0.0
        assert result.sign_flips == 0

    def test_negative_column_is_sign_fixed(self):
        result = DecompositionResult(
            eigenvalues=np.array([1.0]),
            eigenvectors=np.array([[-0.25], [-0.75]]),
        )
        means = recover_feature_means(result, np.array([[-0.25], [-0.75]]))
        np.testing.assert_allclose(means[:, 0], [0.25, 0.75], atol=1e-12)
        assert result.sign_flips == 1

    def test_fully_clamped_block_falls_back_to_uniform(self):
        result = DecompositionResult(
            eigenvalues=np.array([1.0]),
            eigenvectors=np.array([[1.0], [1.0], [-1.0], [-1.0]]),
        )
        readout = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        means = recover_feature_means(result, readout, num_blocks=2)
        np.testing.assert_allclose(means[:, 0], [0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert result.clamp_mass == pytest.approx(2.0)

    def test_readout_is_left_intact(self):
        result = DecompositionResult(eigenvalues=np.array([1.0]), eigenvectors=np.ones((2, 1)))
        readout = np.array([[-0.5], [2.0]])
        recover_feature_means(result, readout)
        assert readout.tolist() == [[-0.5], [2.0]]

    def test_tensor_readout_is_exact_on_population_moments(self):
        pi = np.array([0.5, 0.3, 0.2])
        T = _column_wise([[0.6, 0.2, 0.2], [0.2, 0.7, 0.2], [0.2, 0.1, 0.6]])
        C = exact_feature_map([0.15, 0.5, 0.85], [(12, 1.0)], granularity=6)
        ms = population_moments(pi, T, C)
        result, _, _ = _fit_feature_means(ms, num_states=3)
        # lambda_l = 1 / sqrt(w_l), w = T @ pi the middle-state distribution
        # [0.4, 0.35, 0.25], orders the states by ascending weight
        mid = T @ pi
        np.testing.assert_allclose(result.eigenvalues, 1.0 / np.sqrt(mid[[2, 1, 0]]))
        np.testing.assert_allclose(result.feature_means, C[:, [2, 1, 0]], atol=1e-9)
        assert result.clamp_mass <= 1e-9

    def test_readout_columns_must_match_the_eigenvectors(self):
        result = DecompositionResult(
            eigenvalues=np.array([1.0]), eigenvectors=np.ones((2, 1))
        )
        with pytest.raises(ParameterError, match="columns"):
            recover_feature_means(result, np.zeros((3, 2)))

    def test_blocks_must_divide(self):
        result = DecompositionResult(
            eigenvalues=np.array([1.0]), eigenvectors=np.ones((3, 1))
        )
        with pytest.raises(ParameterError, match="num_blocks"):
            recover_feature_means(result, np.zeros((3, 1)), num_blocks=2)


def _fit_feature_means(ms, num_states):
    """The fit's spectral chain from moments to feature means, on the dense triple."""
    s1, s3 = symmetrize_moments(ms.p12, ms.p13, ms.p23, num_states)
    whitening = whiten(pair_spectrum(s3, ms.p32), num_states)
    g, asymmetry = dense_symmetric_triple(ms, s1, s3)
    w = whitening.w
    result = joint_diagonalization(np.einsum("abc,ai,bj,ck->ijk", g, w, w, w))
    u = w @ result.eigenvectors
    readout = np.einsum("abk,al,bl->kl", g, u, u)
    recover_feature_means(result, readout, num_blocks=ms.num_blocks)
    return result, whitening, asymmetry


class TestEndToEnd:
    def _match_columns(self, est, truth):
        m = truth.shape[1]
        if m != 2:
            raise ValueError("helper handles two columns")
        direct = max(
            np.linalg.norm(est[:, 0] - truth[:, 0]),
            np.linalg.norm(est[:, 1] - truth[:, 1]),
        )
        swapped = max(
            np.linalg.norm(est[:, 0] - truth[:, 1]),
            np.linalg.norm(est[:, 1] - truth[:, 0]),
        )
        return min(direct, swapped)

    def test_one_hot_features_recover_indicator_columns(self):
        pi = np.array([0.5, 0.3, 0.2])
        T = _column_wise([[0.6, 0.2, 0.2], [0.2, 0.7, 0.2], [0.2, 0.1, 0.6]])
        ms = population_moments(pi, T, np.eye(3))
        result, _, asymmetry = _fit_feature_means(ms, num_states=3)
        assert asymmetry <= 1e-8
        means = result.feature_means
        # each column should be a standard basis vector, once each
        picked = sorted(int(np.argmax(means[:, l])) for l in range(3))
        assert picked == [0, 1, 2]
        for l in range(3):
            np.testing.assert_allclose(
                means[:, l], np.eye(3)[:, np.argmax(means[:, l])], atol=1e-6
            )

    def test_binomial_histogram_features_recover_exact_columns(self):
        pi = np.array([0.6, 0.4])
        T = _column_wise([[0.7, 0.4], [0.3, 0.6]])
        C = exact_feature_map([0.2, 0.8], [(8, 1.0)], granularity=8)
        ms = population_moments(pi, T, C)
        result, whitening, asymmetry = _fit_feature_means(ms, num_states=2)
        assert asymmetry <= 1e-8
        assert self._match_columns(result.feature_means, C) <= 1e-4
        gram = whitening.w.T @ whitening.pair_matrix @ whitening.w
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-6)
