import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from betahmm import (
    BetaMapConfig,
    CountSequence,
    DataError,
    Observation,
    ParameterError,
    beta_map,
    cache_stats,
    clear_cache,
    empirical_prior_weight,
    prior_weights,
)
from betahmm import features
from betahmm.features import feature_table

from oracles import (
    beta_histogram_row,
    exact_beta_histogram_rows,
    reference_feature_keys,
    reference_features,
)


class TestFrozenValues:
    def test_no_reads_gives_uniform(self):
        phi = beta_map(Observation(0, 0), BetaMapConfig(granularity=4))
        np.testing.assert_allclose(phi, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_one_of_one_two_bins(self):
        # Beta(2, 1) has density 2x, so the upper half holds 3/4 of the mass.
        phi = beta_map(Observation(1, 1), BetaMapConfig(granularity=2))
        np.testing.assert_allclose(phi, [0.25, 0.75], atol=1e-12)

    def test_single_bin_collapses_to_one(self):
        for obs in (Observation(0, 0), Observation(9, 4), Observation(30, 30)):
            phi = beta_map(obs, BetaMapConfig(granularity=1))
            np.testing.assert_allclose(phi, [1.0], atol=0)

    def test_granularity_must_be_positive(self):
        with pytest.raises(ParameterError):
            BetaMapConfig(granularity=0)


class TestAgainstQuadrature:
    @pytest.mark.parametrize(
        "coverage,meth",
        [(1, 0), (4, 2), (11, 3), (30, 29), (17, 0)],
    )
    def test_bin_masses_match_numeric_integration(self, coverage, meth):
        granularity = 6
        phi = beta_map(Observation(coverage, meth), BetaMapConfig(granularity))
        dist = sps.beta(meth + 1, coverage - meth + 1)
        edges = np.linspace(0.0, 1.0, granularity + 1)
        for i in range(granularity):
            mass, _ = integrate.quad(dist.pdf, edges[i], edges[i + 1])
            assert phi[i] == pytest.approx(mass, abs=1e-8)


class TestAgainstExactArithmetic:
    """Every row of one coverage against ``exact_beta_histogram_rows``."""

    @staticmethod
    def _rows(coverage, granularity):
        return features._beta_bin_masses(
            np.full(coverage + 1, coverage), np.arange(coverage + 1), granularity
        )

    @pytest.mark.parametrize("granularity", [1, 2, 3, 5, 12, 30])
    def test_small_coverages(self, granularity):
        for coverage in range(61):
            rows = self._rows(coverage, granularity)
            exact = exact_beta_histogram_rows(coverage, granularity)
            np.testing.assert_allclose(rows, exact, rtol=0, atol=4e-15, err_msg=str(coverage))
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("granularity", [12, 30])
    def test_coverage_at_the_bound(self, granularity):
        coverage = features._TAIL_MAX_COVERAGE
        exact = exact_beta_histogram_rows(coverage, granularity)
        np.testing.assert_allclose(self._rows(coverage, granularity), exact, rtol=0, atol=1e-14)

    def test_coverage_above_the_bound_uses_betainc(self):
        coverage, granularity = features._TAIL_MAX_COVERAGE + 1, 30
        expected = [
            np.maximum(beta_histogram_row(coverage, mu, granularity), 0.0)
            for mu in range(coverage + 1)
        ]
        assert np.array_equal(self._rows(coverage, granularity), expected)


class TestEmpiricalPriorWeight:
    def test_constant_coverage(self):
        seq = CountSequence([2, 2, 2, 2], [0, 1, 2, 0])
        assert empirical_prior_weight(seq) == pytest.approx(0.25)

    def test_mixed_coverage(self):
        seq = CountSequence([0, 2], [0, 1])
        assert empirical_prior_weight(seq) == pytest.approx(0.375)

    def test_poisson_coverage_matches_pmf_expectation(self):
        gen = np.random.default_rng(5)
        cov = gen.poisson(25, size=20000)
        meth = np.zeros_like(cov)
        seq = CountSequence(cov, meth)
        values = 1.0 / (cov + 2.0)
        support = np.arange(0, 200)
        exact = float(np.sum(sps.poisson.pmf(support, 25) / (support + 2.0)))
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(empirical_prior_weight(seq) - exact) <= 3.0 * se

    def test_two_cells(self):
        seq = CountSequence([[2, 0], [2, 0]], [[1, 0], [0, 0]])
        weights = prior_weights(seq)
        np.testing.assert_allclose(weights, [0.25, 0.5])
        assert empirical_prior_weight(seq, cell=1) == pytest.approx(0.5)

    @pytest.mark.parametrize("length", [3, 5, 23])
    def test_summed_in_steps(self, monkeypatch, length):
        # steps of 5: one short step, one full step, and four with a short last one
        monkeypatch.setattr(features, "_STEP", 5)
        cov = np.random.default_rng(length).integers(0, 40, size=(length, 2))
        seq = CountSequence(cov, np.zeros_like(cov))
        for cell in range(2):
            assert empirical_prior_weight(seq, cell) == pytest.approx(
                np.mean(1.0 / (cov[:, cell] + 2.0)), rel=1e-15
            )

    def test_bad_cell_index(self):
        seq = CountSequence([2, 2, 2], [0, 1, 2])
        with pytest.raises(ParameterError):
            empirical_prior_weight(seq, cell=1)

    def test_empty_sequence(self):
        seq = CountSequence(np.zeros((0, 1), dtype=int), np.zeros((0, 1), dtype=int))
        with pytest.raises(DataError):
            empirical_prior_weight(seq)


@given(
    coverage=st.integers(0, 200),
    frac=st.floats(0.0, 1.0),
    granularity=st.integers(1, 128),
)
@settings(max_examples=200, deadline=None)
def test_map_is_a_distribution(coverage, frac, granularity):
    meth = int(coverage * frac)
    phi = beta_map(Observation(coverage, meth), BetaMapConfig(granularity))
    assert phi.shape == (granularity,)
    assert phi.min() >= 0.0
    assert abs(phi.sum() - 1.0) <= 1e-10


@given(coverage=st.integers(1, 400), frac=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_histogram_mean_tracks_posterior_mean(coverage, frac):
    granularity = 64
    meth = int(coverage * frac)
    phi = beta_map(Observation(coverage, meth), BetaMapConfig(granularity))
    centers = (np.arange(granularity) + 0.5) / granularity
    posterior_mean = (meth + 1.0) / (coverage + 2.0)
    assert abs(float(centers @ phi) - posterior_mean) <= 1.0 / granularity


@pytest.mark.parametrize("coverage", [16, 64, 256])
def test_mass_concentrates_near_observed_rate(coverage):
    granularity = 64
    radius = 4.0 * math.sqrt(math.log(4.0) / coverage)
    edges = np.linspace(0.0, 1.0, granularity + 1)
    for meth in range(0, coverage + 1, max(1, coverage // 8)):
        phi = beta_map(Observation(coverage, meth), BetaMapConfig(granularity))
        rate = meth / coverage
        lo, hi = rate - radius, rate + radius
        inside = (edges[1:] >= lo) & (edges[:-1] <= hi)
        assert phi[inside].sum() >= 0.75


class TestCache:
    def test_hits_and_entries(self):
        clear_cache()
        cfg = BetaMapConfig(granularity=8)
        beta_map(Observation(7, 3), cfg)
        beta_map(Observation(7, 3), cfg)
        beta_map(Observation(7, 4), cfg)
        stats = cache_stats()
        assert stats["requests"] == 3
        assert stats["computed"] == 2
        assert stats["entries"] == 2

    def test_granularity_keys_are_distinct(self):
        clear_cache()
        beta_map(Observation(5, 2), BetaMapConfig(granularity=4))
        beta_map(Observation(5, 2), BetaMapConfig(granularity=8))
        assert cache_stats()["computed"] == 2

    def test_clear_resets(self):
        beta_map(Observation(3, 1), BetaMapConfig(granularity=4))
        clear_cache()
        assert cache_stats() == {"entries": 0, "computed": 0, "requests": 0}


class TestMapSequence:
    """A whole sequence mapped through ``feature_table``: ``table[index]``."""

    def test_matches_rowwise_concat(self):
        gen = np.random.default_rng(11)
        cov = gen.integers(0, 40, size=(25, 2))
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        seq = CountSequence(cov, meth)
        table, index = feature_table(seq, BetaMapConfig(granularity=5))
        rows = table[index].reshape(25, 10)
        np.testing.assert_allclose(rows, reference_features(seq, 5), rtol=0, atol=1e-14)

    def test_blocks_each_sum_to_one(self):
        gen = np.random.default_rng(3)
        cov = gen.integers(0, 15, size=(40, 3))
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        table, index = feature_table(CountSequence(cov, meth), BetaMapConfig(granularity=7))
        assert index.shape == (40, 3)
        np.testing.assert_allclose(table[index].sum(axis=2), 1.0, atol=1e-10)

    def test_repeated_observations_reuse_cache(self):
        clear_cache()
        cov = np.full(500, 9)
        meth = np.full(500, 4)
        feature_table(CountSequence(cov, meth), BetaMapConfig(granularity=6))
        assert cache_stats()["computed"] == 1


class TestFeatureTable:
    def test_rows_and_index_rebuild_the_sequence(self):
        gen = np.random.default_rng(5)
        cov = gen.integers(0, 20, size=(60, 2))
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        seq = CountSequence(cov, meth)
        cfg = BetaMapConfig(granularity=4)
        table, index = feature_table(seq, cfg)
        assert index.shape == (60, 2)
        pairs = sorted(set(zip(cov.ravel().tolist(), meth.ravel().tolist())))
        assert table.shape == (len(pairs), 4)
        for t in range(60):
            for j in range(2):
                assert pairs[index[t, j]] == (cov[t, j], meth[t, j])
                assert np.array_equal(table[index[t, j]], beta_map((cov[t, j], meth[t, j]), cfg))

    def test_counts_near_the_int64_limit_keep_distinct_keys(self):
        top = 2**63 - 1
        cov = np.array([top, top, top - 1, top, 0])
        meth = np.array([top, top - 1, top - 1, 0, 0])
        table, index = feature_table(CountSequence(cov, meth), BetaMapConfig(granularity=3))
        assert table.shape == (5, 3)
        assert sorted(index[:, 0].tolist()) == [0, 1, 2, 3, 4]


_DENSE = features._DENSE_KEYS


def _smallest_unsigned(top: int) -> np.dtype:
    types = (np.uint8, np.uint16, np.uint32, np.uint64)
    return next(np.dtype(t) for t in types if top <= np.iinfo(t).max)


class TestFeatureTableKeys:
    """``feature_table``'s two keyings against the rank-coded np.unique keying."""

    @staticmethod
    def _sorts(monkeypatch) -> list:
        """Record each np.lexsort call, which only the sorted keying makes."""
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        return calls

    @staticmethod
    def _assert_matches_reference(seq, granularity=4):
        cfg = BetaMapConfig(granularity=granularity)
        table, index = feature_table(seq, cfg)
        cov_u, meth_u, ref_index = reference_feature_keys(seq)
        assert index.dtype == _smallest_unsigned(len(cov_u) - 1)
        assert np.array_equal(index, ref_index)
        rows = [beta_map((c, mu), cfg) for c, mu in zip(cov_u.tolist(), meth_u.tolist())]
        assert table.shape == (len(rows), granularity)
        assert np.array_equal(table, np.array(rows))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_sequences(self, data):
        cells = data.draw(st.integers(1, 2))
        length = data.draw(st.integers(1, 40))
        top = 2**63 - 1
        cov = data.draw(st.lists(
            st.one_of(st.integers(0, 12), st.integers(top - 3, top)),
            min_size=length * cells, max_size=length * cells,
        ))
        meth = [
            data.draw(st.one_of(st.integers(0, min(c, 3)), st.integers(max(0, c - 3), c)))
            for c in cov
        ]
        self._assert_matches_reference(CountSequence(
            np.array(cov, dtype=np.int64).reshape(length, cells),
            np.array(meth, dtype=np.int64).reshape(length, cells),
        ))

    def test_counts_near_the_int64_limit(self):
        top = 2**63 - 1
        cov = np.array([[top, 0], [top, top - 1], [top - 1, top], [5, top], [top, top]])
        meth = np.array([[top, 0], [0, top - 1], [top - 1, 1], [5, top], [top, top - 2]])
        self._assert_matches_reference(CountSequence(cov, meth))

    @pytest.mark.parametrize(
        "radix, length, cells, dense",
        [
            # (c_max + 1)**2 = 4 K**2 = K * 4K observations: at the bound, dense
            (2 * _DENSE, 2 * _DENSE, 2, True),
            # (K + 1)**2 = K * (K + 2) + 1: one above the bound, sorted
            (_DENSE + 1, _DENSE + 2, 1, False),
        ],
    )
    def test_both_sides_of_the_dense_bound(self, monkeypatch, radix, length, cells, dense):
        gen = np.random.default_rng(radix)
        cov = gen.integers(0, radix, size=(length, cells))
        cov[-1, -1] = radix - 1
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        sorts = self._sorts(monkeypatch)
        self._assert_matches_reference(CountSequence(cov, meth))
        assert len(sorts) == (0 if dense else 1)

    def test_small_counts_beside_one_near_the_int64_limit(self, monkeypatch):
        # one huge coverage makes (c_max + 1)**2 overflow int64, so the pairs
        # are sorted; the small pairs around it keep their order and rows
        top = 2**63 - 1
        cov = np.array([3, 0, 3, top - 1, 7, 1, 3, 0])
        meth = np.array([1, 0, 3, 2**62, 7, 0, 1, 0])
        sorts = self._sorts(monkeypatch)
        self._assert_matches_reference(CountSequence(cov, meth))
        assert len(sorts) == 1

    @pytest.mark.parametrize("size", [256, 257, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("dense", [True, False])
    def test_index_dtype_is_the_smallest_that_holds_every_row(self, monkeypatch, size, dense):
        # the first size pairs in (coverage, count) order, shuffled; the sorted
        # keying gets one pair at the int64 limit in place of the last
        pairs = [(c, mu) for c in range(400) for mu in range(c + 1)][:size]
        if not dense:
            pairs[-1] = (2**63 - 1, 2**62)
        cov, meth = np.array(pairs).T[:, np.random.default_rng(size).permutation(size)]
        sorts = self._sorts(monkeypatch)
        seq = CountSequence(cov, meth)
        table, index = feature_table(seq, BetaMapConfig(granularity=2))
        clear_cache()
        assert len(sorts) == (0 if dense else 1)
        assert index.dtype == _smallest_unsigned(size - 1)
        assert len(table) == size
        assert np.array_equal(index, reference_feature_keys(seq)[2])

    @pytest.mark.parametrize("cov, meth", [([7], [2]), ([[3, 5]], [[1, 5]])])
    def test_one_position(self, cov, meth):
        self._assert_matches_reference(CountSequence(cov, meth))

    @pytest.mark.parametrize("cells", [1, 2])
    def test_dense_keying_in_steps(self, monkeypatch, cells):
        # 23 positions in steps of 5: four full steps and a short last one of 3
        monkeypatch.setattr(features, "_STEP", 5)
        gen = np.random.default_rng(cells)
        cov = gen.integers(0, 9, size=(23, cells))
        meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
        sorts = self._sorts(monkeypatch)
        self._assert_matches_reference(CountSequence(cov, meth))
        assert sorts == []


class TestCacheThreads:
    def test_concurrent_mapping_counts_every_lookup(self):
        clear_cache()
        cfg = BetaMapConfig(granularity=5)
        gen = np.random.default_rng(21)
        seqs = []
        for _ in range(6):
            cov = gen.integers(0, 25, size=(300, 2))
            meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
            seqs.append(CountSequence(cov, meth))
        distinct = [
            len(set(zip(s.coverage.ravel().tolist(), s.meth.ravel().tolist()))) for s in seqs
        ]
        union = set()
        for s in seqs:
            union |= set(zip(s.coverage.ravel().tolist(), s.meth.ravel().tolist()))
        rounds, workers = 5, 4
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait()
            for _ in range(rounds):
                for s in seqs:
                    feature_table(s, cfg)

        threads = [threading.Thread(target=work) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        stats = cache_stats()
        assert stats["entries"] == stats["computed"] == len(union)
        assert stats["requests"] == workers * rounds * sum(distinct)
