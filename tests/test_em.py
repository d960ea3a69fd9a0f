import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from betahmm import (
    CountSequence,
    DataError,
    EmConfig,
    HmmParams,
    NumericalError,
    ParameterError,
    em_fit,
    log_likelihood,
    validate_params,
)
from betahmm import em as em_module
from betahmm.em import emission_log_probs, random_init
from betahmm.synth import estimation_error, sample_sequence
from oracles import brute_force_log_likelihood, sequential_forward_backward


def _params(pi, T, p):
    return HmmParams(
        initial_dist=np.asarray(pi, dtype=float),
        transition=np.asarray(T, dtype=float),
        meth_probs=np.asarray(p, dtype=float),
    )


def _random_instance(gen, num_states, length, num_cells=1, max_cov=3):
    pi = gen.dirichlet(np.ones(num_states))
    T = np.column_stack([gen.dirichlet(np.ones(num_states)) for _ in range(num_states)])
    p = gen.uniform(0.05, 0.95, size=(num_cells, num_states))
    if num_cells == 1:
        p = p[0]
    params = _params(pi, T, p)
    cov = gen.integers(0, max_cov + 1, size=(length, num_cells))
    meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
    return params, CountSequence(cov, meth)


def _emissions(params, rows):
    return emission_log_probs(params, rows).T


def _passes(params, seq):
    """Log-likelihood from pass 1, then alphas, scales and betas over the
    whole sequence from pass 2's steps. Pass 2 leaves row 0's scale, the
    normalizer of pi * b_0, to the caller."""
    pi, T = params.initial_dist, params.transition
    emissions = functools.partial(_emissions, params)
    passed = em_module._pass1(pi, T, seq, emissions)
    steps = list(em_module._pass2(T, seq, emissions, passed))[::-1]
    alphas, scales, betas = (
        np.concatenate([part[i].T[1 if a else 0 :] for a, *part in steps]) for i in (0, 2, 1)
    )
    scales[0] = pi @ steps[0][4][:, 0]
    return passed[0], alphas, scales, betas


def _stuck_chain(length, bad):
    """Two states that never switch, the chain starting in the unmethylated
    one; every position is unmethylated except position ``bad``, which only
    the other state can emit, so the forward pass underflows there."""
    params = _params([1.0, 0.0], np.eye(2), [0.0, 1.0])
    cov = np.full(length, 50)
    meth = np.zeros(length, dtype=np.int64)
    meth[bad] = 50
    return params, CountSequence(cov, meth)


class TestLogLikelihood:
    def test_single_position_closed_form(self):
        params = _params([1.0], [[1.0]], [0.5])
        seq = CountSequence([2], [1])
        assert log_likelihood(params, seq) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_single_state_factorizes(self, rng):
        p = 0.37
        params = _params([1.0], [[1.0]], [p])
        cov = rng.integers(0, 10, size=30)
        meth = (cov * rng.uniform(size=30)).astype(np.int64)
        seq = CountSequence(cov, meth)
        expected = float(sps.binom.logpmf(meth, cov, p).sum())
        assert log_likelihood(params, seq) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("num_states,length", [(2, 3), (2, 6), (3, 5)])
    def test_matches_path_enumeration(self, rng, num_states, length):
        params, seq = _random_instance(rng, num_states, length)
        expected = brute_force_log_likelihood(params, seq)
        assert log_likelihood(params, seq) == pytest.approx(expected, abs=1e-8)

    def test_matches_path_enumeration_two_cells(self, rng):
        params, seq = _random_instance(rng, 2, 4, num_cells=2)
        expected = brute_force_log_likelihood(params, seq)
        assert log_likelihood(params, seq) == pytest.approx(expected, abs=1e-8)

    def test_empty_sequence(self):
        params = _params([1.0], [[1.0]], [0.5])
        empty = CountSequence(np.zeros((0, 1), dtype=int), np.zeros((0, 1), dtype=int))
        with pytest.raises(DataError):
            log_likelihood(params, empty)

    def test_impossible_observation(self):
        params = _params([1.0], [[1.0]], [0.0])
        seq = CountSequence([2], [1])
        with pytest.raises(NumericalError, match="zero probability"):
            log_likelihood(params, seq)

    # at 5,000 positions the block-start scan takes several doubling rounds
    # across the dead rows that follow the impossible position; the step
    # edge cases put it in the last row of step 0, the first of step 1 or
    # a short last step
    @pytest.mark.parametrize(
        "length,bad",
        [
            (5, 1),
            (100, 37),
            (5000, 4321),
            (2 * em_module._STEP, em_module._STEP - 1),
            (2 * em_module._STEP, em_module._STEP),
            (2 * em_module._STEP + 3, 2 * em_module._STEP + 1),
        ],
    )
    def test_underflow_names_the_first_impossible_position(self, length, bad):
        params, seq = _stuck_chain(length, bad)
        message = f"forward pass underflowed at position {bad}$"
        with pytest.raises(NumericalError, match=message):
            log_likelihood(params, seq)
        with pytest.raises(NumericalError, match=message):
            em_fit(seq, 2, EmConfig(init=params))


class TestBlockedWalkMatchesSequentialLoop:
    """The two passes against one loop step per position, at block and step edges."""

    @staticmethod
    def _check(length, num_states, num_cells):
        gen = np.random.default_rng(1000 * length + 10 * num_states + num_cells)
        params, seq = _random_instance(gen, num_states, length, num_cells, max_cov=30)
        log_b = emission_log_probs(params, seq)
        ll_ref, alphas_ref, scales_ref, betas_ref = sequential_forward_backward(
            params.initial_dist, params.transition, log_b
        )
        log_like, alphas, scales, betas = _passes(params, seq)
        assert log_like == pytest.approx(ll_ref, rel=1e-12)
        assert log_likelihood(params, seq) == log_like
        np.testing.assert_allclose(alphas, alphas_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scales, scales_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(betas, betas_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("num_cells", [1, 2])
    @pytest.mark.parametrize("num_states", [1, 2, 4, 6])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 10, 17, 26, 101, 4097, 4100, 8193])
    def test_alphas_betas_and_likelihood(self, length, num_states, num_cells):
        self._check(length, num_states, num_cells)

    # steps of 50 rows: block size 3 and 17 blocks a step, the last one short
    @pytest.mark.parametrize("num_cells", [1, 2])
    @pytest.mark.parametrize("num_states", [1, 2, 4, 6])
    @pytest.mark.parametrize("length", [49, 50, 51, 103, 257])
    def test_at_step_edges(self, monkeypatch, length, num_states, num_cells):
        monkeypatch.setattr(em_module, "_STEP", 50)
        self._check(length, num_states, num_cells)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 3 + em_module._STEP])
    def test_at_the_step_edges_of_the_real_step(self, offset):
        self._check(em_module._STEP + offset, 3, 2)

    @pytest.mark.parametrize("length", [200, 5000])
    def test_chain_held_in_the_state_the_data_disfavour(self, length):
        # with T = I a block's transfer rows never mix: the occupied state's row
        # falls by e^-55 a position against the other's and must not underflow,
        # in a block's own steps or in the scan over the blocks
        params = _params([0.0, 1.0], np.eye(2), [0.1, 0.9])
        seq = CountSequence(np.full(length, 25), np.zeros(length, dtype=np.int64))
        expected = length * 25 * math.log(0.1)
        assert log_likelihood(params, seq) == pytest.approx(expected, rel=1e-12)
        # the forward half of pass 2's walk, alone: the backward messages of
        # this chain do underflow to disjoint supports
        pi, T = params.initial_dist, params.transition
        emissions = functools.partial(_emissions, params)
        _, bounds, b = em_module._pass1(pi, T, seq, emissions)
        size, _ = em_module._steps(length)
        alphas, *_ = em_module._walk(T, b, bounds[0, :-1], bounds[0, :-1], length - 1, size)
        assert np.array_equal(alphas.T, np.tile([0.0, 1.0], (length, 1)))


class TestSteps:
    """EM over sequences of several steps."""

    def test_one_iteration_matches_the_m_step_of_the_sequential_loop(self):
        gen = np.random.default_rng(5)
        length = 2 * em_module._STEP + 3
        params, seq = _random_instance(gen, 3, length, num_cells=2, max_cov=30)
        pi, T = params.initial_dist, params.transition
        log_b = emission_log_probs(params, seq)
        _, alphas, scales, betas = sequential_forward_backward(pi, T, log_b)
        b = np.exp(log_b - log_b.max(axis=1)[:, None])
        gammas = alphas * betas
        trans = T * ((b[1:] * betas[1:] / scales[1:, None]).T @ alphas[:-1])
        meth_probs = (gammas.T @ seq.meth) / (gammas.T @ seq.coverage)
        fitted = em_fit(seq, 3, EmConfig(max_iters=1, init=params)).params
        np.testing.assert_allclose(fitted.initial_dist, gammas[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fitted.transition, trans / trans.sum(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(fitted.meth_probs, meth_probs.T, rtol=1e-12, atol=0.0)

    @staticmethod
    def _peaks(step_counts):
        """em_fit's tracemalloc peak at 4 states over each count of steps."""
        peaks = []
        for steps in step_counts:
            gen = np.random.default_rng(steps)
            cov = gen.integers(0, 30, size=steps * em_module._STEP)
            seq = CountSequence(cov, gen.binomial(cov, 0.4))
            tracemalloc.start()
            try:
                em_fit(seq, 4, EmConfig(max_iters=1, seed=0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_memory_grows_by_a_few_bytes_a_row(self):
        # beyond the counts, a fit holds every block's transfer (about 90 rows
        # a block at the full step) and one step's messages: measured 0.7 B a
        # row from 4 to 8 steps at 4 states, with about 5 MB for the step,
        # where a fit that held every row's messages grew by about 250 B a row
        peaks = self._peaks((4, 8))
        per_row = (peaks[1] - peaks[0]) / (4 * em_module._STEP)
        assert per_row < 4.0, f"{per_row:.1f} B a row, peaks {peaks}"

    def test_scan_memory_is_bounded_by_a_chunk(self, monkeypatch):
        # steps of 4,096 rows (31-row blocks) and chunks of 256 blocks, so 32
        # steps scan 16 chunks: beyond the kept transfers, the scan's terms do
        # not grow with the length. Measured 9.6 B a row from 4 to 32 steps,
        # against 29.9 when every block of a round was composed at once
        monkeypatch.setattr(em_module, "_STEP", 4096)
        monkeypatch.setattr(em_module, "_CHUNK", 256)
        peaks = self._peaks((4, 32))
        per_row = (peaks[1] - peaks[0]) / (28 * em_module._STEP)
        assert per_row < 16.0, f"{per_row:.1f} B a row, peaks {peaks}"

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        # steps of 50 rows: 17 blocks a step and about 680 in all, so one
        # chunk at the default size and many at 1 and 5
        monkeypatch.setattr(em_module, "_STEP", 50)
        gen = np.random.default_rng(29)
        params, seq = _random_instance(gen, 3, 2003, num_cells=2, max_cov=30)

        def run():
            trace = em_fit(seq, 3, EmConfig(max_iters=3, rel_ll_tolerance=0.0, seed=0))
            return log_likelihood(params, seq), trace.log_likelihoods, trace.params

        want = run()
        for chunk in (1, 5):
            monkeypatch.setattr(em_module, "_CHUNK", chunk)
            log_like, lls, fitted = run()
            assert log_like == want[0]
            assert lls == want[1]
            for name in ("initial_dist", "transition", "meth_probs"):
                np.testing.assert_array_equal(getattr(fitted, name), getattr(want[2], name))


class TestEmissionLogProbs:
    def test_shape_and_values(self):
        params = _params([0.5, 0.5], np.eye(2), [0.2, 0.8])
        seq = CountSequence([3, 1], [1, 0])
        out = emission_log_probs(params, seq)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(sps.binom.logpmf(1, 3, 0.2), abs=1e-12)
        assert out[1, 1] == pytest.approx(sps.binom.logpmf(0, 1, 0.8), abs=1e-12)

    def test_cells_multiply(self):
        params = _params([0.5, 0.5], np.eye(2), [[0.2, 0.8], [0.4, 0.6]])
        seq = CountSequence([[3, 2]], [[1, 2]])
        out = emission_log_probs(params, seq)
        expected = sps.binom.logpmf(1, 3, 0.2) + sps.binom.logpmf(2, 2, 0.4)
        assert out[0, 0] == pytest.approx(float(expected), abs=1e-12)

    def test_cell_count_mismatch(self):
        params = _params([1.0], [[1.0]], [0.5])
        seq = CountSequence([[2, 2]], [[1, 1]])
        with pytest.raises(ParameterError, match="cell"):
            emission_log_probs(params, seq)

    @pytest.mark.parametrize("num_cells", [1, 2])
    @pytest.mark.parametrize("top", [30, 10**6, 2**53 - 8])
    def test_matches_binom_logpmf(self, top, num_cells):
        # p in {0, 1} beside interior values; mu = 0, mu = c and 0 < mu < c
        gen = np.random.default_rng(top % 1000 + num_cells)
        if top < 2**40:
            cov = gen.integers(0, top + 1, size=(300, num_cells))
            meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        else:  # near 2^53, where counts still convert to float exactly
            cov = top - gen.integers(0, 8, size=(300, num_cells))
            meth = gen.integers(0, 100, size=cov.shape)
        meth[:40] = 0
        meth[40:80] = cov[40:80]
        p = gen.uniform(0.05, 0.95, size=(num_cells, 5))
        p[:, 0], p[:, 1] = 0.0, 1.0
        params = _params(np.full(5, 0.2), np.full((5, 5), 0.2), p[0] if num_cells == 1 else p)
        out = emission_log_probs(params, CountSequence(cov, meth))
        expected = sps.binom.logpmf(meth[:, :, None], cov[:, :, None], p[None]).sum(axis=1)
        assert np.array_equal(np.isneginf(out), np.isneginf(expected))
        assert np.isneginf(expected[:, :2]).any() and np.isfinite(expected[:, :2]).any()
        finite = np.isfinite(expected)
        assert np.isfinite(out[finite]).all()
        # an entry is a difference of terms as large as log c!, so round-off
        # is relative to that size
        scale = np.abs(expected) + np.array(
            [sum(math.lgamma(c + 1) for c in row) for row in cov.tolist()]
        )[:, None]
        assert np.all(np.abs(out[finite] - expected[finite]) <= 1e-12 * scale[finite])

    def test_dense_and_distinct_lookups_agree(self):
        # one huge count sends the coefficients through the distinct values;
        # every other position must match the dense-table result exactly
        gen = np.random.default_rng(7)
        cov = gen.integers(0, 40, size=(200, 2))
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        params = _params(np.full(3, 1 / 3), np.full((3, 3), 1 / 3), gen.uniform(size=(2, 3)))
        dense = emission_log_probs(params, CountSequence(cov, meth))
        cov[0, 0] = meth[0, 0] = 2**62
        distinct = emission_log_probs(params, CountSequence(cov, meth))
        assert np.array_equal(dense[1:], distinct[1:])


class TestRandomInit:
    def test_distributions_are_normalized(self, rng):
        params = random_init(4, 2, rng)
        assert validate_params(params) is params
        assert params.meth_probs.shape == (2, 4)
        assert params.meth_probs.min() >= 0.05
        assert params.meth_probs.max() <= 0.95

    def test_single_cell_squeezes(self, rng):
        params = random_init(3, 1, rng)
        assert params.meth_probs.shape == (3,)

    def test_seed_determinism(self):
        a = random_init(3, 1, np.random.default_rng(9))
        b = random_init(3, 1, np.random.default_rng(9))
        assert np.array_equal(a.initial_dist, b.initial_dist)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.meth_probs, b.meth_probs)


class TestEmFit:
    def test_single_state_single_step_is_pooled_rate(self, rng):
        cov = rng.integers(0, 20, size=50)
        meth = (cov * rng.uniform(size=50)).astype(np.int64)
        seq = CountSequence(cov, meth)
        trace = em_fit(seq, 1, EmConfig(max_iters=1, seed=0))
        pooled = meth.sum() / cov.sum()
        assert trace.params.meth_probs[0] == pytest.approx(pooled, abs=1e-12)
        assert trace.iterations == 1

    def test_trace_is_monotone(self, rng):
        _, seq = _random_instance(rng, 3, 80, max_cov=12)
        trace = em_fit(seq, 3, EmConfig(max_iters=30, rel_ll_tolerance=0.0, seed=1))
        lls = np.array(trace.log_likelihoods)
        assert len(lls) == 30
        assert len(trace.seconds) == 30
        assert min(trace.seconds) >= 0.0
        assert np.all(np.diff(lls) >= -1e-8)
        assert validate_params(trace.params) is trace.params

    def test_final_params_score_at_least_last_trace_entry(self, rng):
        _, seq = _random_instance(rng, 2, 60, max_cov=10)
        trace = em_fit(seq, 2, EmConfig(max_iters=10, rel_ll_tolerance=0.0, seed=2))
        final_ll = log_likelihood(trace.params, seq)
        assert final_ll >= trace.log_likelihoods[-1] - 1e-8

    @pytest.mark.parametrize("num_cells", [1, 2])
    def test_trace_is_the_log_likelihood_of_each_iterate(self, num_cells):
        # the fit adds the data-only binomial coefficients once per fit; each
        # traced value must still be the full log-likelihood of its iterate
        gen = np.random.default_rng(20 + num_cells)
        _, seq = _random_instance(gen, 3, 300, num_cells, max_cov=25)
        trace = em_fit(seq, 3, EmConfig(max_iters=6, rel_ll_tolerance=0.0, seed=4))
        iterates = [random_init(3, num_cells, np.random.default_rng(4))]
        for n in range(1, 6):
            cfg = EmConfig(max_iters=n, rel_ll_tolerance=0.0, seed=4)
            iterates.append(em_fit(seq, 3, cfg).params)
        for ll, params in zip(trace.log_likelihoods, iterates):
            assert ll == pytest.approx(log_likelihood(params, seq), rel=1e-12)

    def test_warm_start_at_truth_stays_close(self):
        truth = _params(
            [0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [0.1, 0.9]
        )
        seq = sample_sequence(truth, length=4000, coverage_mean=20, seed=7)
        cfg = EmConfig(max_iters=5, rel_ll_tolerance=0.0, init=truth)
        trace = em_fit(seq, 2, cfg)
        moved, _ = estimation_error(truth.meth_probs, trace.params.meth_probs)
        assert moved <= 0.1

    def test_warm_start_from_a_one_row_matrix_fits_a_vector(self):
        truth = _params([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9]])
        seq = sample_sequence(truth, length=500, coverage_mean=20, seed=7)
        trace = em_fit(seq, 2, EmConfig(max_iters=3, rel_ll_tolerance=0.0, init=truth))
        assert trace.params.meth_probs.shape == (2,)

    @pytest.mark.parametrize(
        "closed,T",
        [
            (True, np.eye(3)),
            (True, [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),
            (True, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
            (False, [[0.5, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 1.0]]),
        ],
        ids=["identity", "closed-0-and-12", "closed-01-and-2", "absorbing-2"],
    )
    def test_reducible_warm_start_is_never_a_parameter_error(self, closed, T):
        # unmethylated then methylated: with two closed classes the forward
        # mass stays in the low one while the backward mass sits in the high
        # one, so alpha_t . beta_t underflows to 0; one absorbing state fits
        meth = np.zeros(400, dtype=np.int64)
        meth[200:] = 25
        seq = CountSequence(np.full(400, 25), meth)
        config = EmConfig(
            max_iters=5, rel_ll_tolerance=0.0, init=_params(np.full(3, 1 / 3), T, [0.1, 0.5, 0.9])
        )
        if closed:
            with pytest.raises(NumericalError, match="backward pass underflowed"):
                em_fit(seq, 3, config)
        else:
            assert np.all(np.isfinite(em_fit(seq, 3, config).log_likelihoods))

    def test_early_stopping_with_loose_tolerance(self, rng):
        _, seq = _random_instance(rng, 2, 40, max_cov=8)
        trace = em_fit(seq, 2, EmConfig(max_iters=50, rel_ll_tolerance=0.5, seed=3))
        assert trace.iterations == 2
        assert len(trace.log_likelihoods) == 2
        assert len(trace.seconds) == 2
        assert min(trace.seconds) >= 0.0

    def test_zero_coverage_state_warns_and_centers(self):
        seq = CountSequence(np.zeros(10, dtype=int), np.zeros(10, dtype=int))
        with pytest.warns(RuntimeWarning, match="zero expected coverage"):
            trace = em_fit(seq, 1, EmConfig(max_iters=1, seed=0))
        assert trace.params.meth_probs[0] == 0.5

    def test_two_cell_fit_matches_enumeration_likelihood(self, rng):
        _, seq = _random_instance(rng, 2, 8, num_cells=2)
        trace = em_fit(seq, 2, EmConfig(max_iters=5, rel_ll_tolerance=0.0, seed=4))
        exact = brute_force_log_likelihood(trace.params, seq)
        assert log_likelihood(trace.params, seq) == pytest.approx(exact, abs=1e-8)

    def test_argument_errors(self, rng):
        _, seq = _random_instance(rng, 2, 10)
        with pytest.raises(ParameterError, match="num_states"):
            em_fit(seq, 0, EmConfig())
        with pytest.raises(DataError, match="at least 2"):
            em_fit(seq[:1], 2, EmConfig())

    def test_warm_start_shape_mismatches(self, rng):
        _, seq = _random_instance(rng, 2, 10)
        three_state = random_init(3, 1, rng)
        with pytest.raises(ParameterError, match="states"):
            em_fit(seq, 2, EmConfig(init=three_state))
        two_cell = random_init(2, 2, rng)
        with pytest.raises(ParameterError, match="cell"):
            em_fit(seq, 2, EmConfig(init=two_cell))

    def test_config_validation(self):
        with pytest.raises(ParameterError, match="max_iters"):
            EmConfig(max_iters=0)
        with pytest.raises(ParameterError, match="rel_ll_tolerance"):
            EmConfig(rel_ll_tolerance=-0.1)

    @pytest.mark.parametrize("iters", [2.5, 3.0, "3"])
    def test_max_iters_must_be_an_integer(self, iters):
        # a float count would reach range() in em_fit and raise TypeError there
        with pytest.raises(ParameterError, match="max_iters must be an integer"):
            EmConfig(max_iters=iters)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tolerance_must_be_finite(self, tol):
        # a NaN or infinite tolerance would reach a model's provenance as a
        # token that strict JSON does not allow
        with pytest.raises(ParameterError, match=r"rel_ll_tolerance must lie in \[0, inf\)"):
            EmConfig(rel_ll_tolerance=tol)
