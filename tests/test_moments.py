import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahmm import (
    BetaMapConfig,
    CountSequence,
    DataError,
    MomentAccumulator,
    MomentSet,
    ParameterError,
)
from betahmm import moments as moments_module
from betahmm.features import feature_table
from betahmm.moments import MAX_FEATURE_DIM, _window_fibres, pair_sums, window_sum

from oracles import naive_moment_means, reference_features


def _random_sequence(gen, length, cells=1, max_cov=12):
    cov = gen.integers(0, max_cov + 1, size=(length, cells))
    meth = (cov * gen.uniform(size=cov.shape)).astype(np.int64)
    return CountSequence(cov, meth)


def _add_window(acc, f1, f2, f3):
    """Accumulate one window of three feature vectors as a 3-row table."""
    k = acc.num_blocks
    table = np.concatenate([f1, f2, f3]).reshape(3 * k, -1)
    return acc.add_indexed(table, np.arange(3 * k).reshape(3, k))


def _assert_matches_naive(moments: MomentSet, feats, atol=1e-12):
    """Compare with plain sums over the windows of a feature matrix."""
    assert moments.count == len(feats) - 2
    naive = naive_moment_means(feats[:-2], feats[1:-1], feats[2:])
    for name, expected in zip(("p12", "p13", "p23", "t123"), naive):
        np.testing.assert_allclose(
            getattr(moments, name), expected, rtol=0, atol=atol, err_msg=name
        )


def _assert_same_moments(a: MomentSet, b: MomentSet, atol=1e-12):
    assert a.count == b.count
    for name in ("p12", "p21", "p13", "p31", "p23", "p32", "t123"):
        np.testing.assert_allclose(
            getattr(a, name), getattr(b, name), atol=atol, err_msg=name
        )


class TestSingleTriple:
    def test_uniform_triple(self):
        cfg = BetaMapConfig(granularity=2)
        acc = MomentAccumulator(2)
        moments = acc.add_sequence(CountSequence([0, 0, 0], [0, 0, 0]), cfg).finalize()
        np.testing.assert_allclose(moments.p12, np.full((2, 2), 0.25), atol=1e-15)
        np.testing.assert_allclose(moments.p31, np.full((2, 2), 0.25), atol=1e-15)
        np.testing.assert_allclose(moments.t123, np.full((2, 2, 2), 0.125), atol=1e-15)
        assert moments.count == 1

    def test_repeating_a_triple_leaves_the_mean_fixed(self):
        cfg = BetaMapConfig(granularity=3)
        triple = CountSequence([6, 3, 1], [2, 3, 0])
        one = MomentAccumulator(3).add_sequence(triple, cfg).finalize()
        acc = MomentAccumulator(3)
        for _ in range(4):
            acc.add_sequence(triple, cfg)
        four = acc.finalize()
        assert four.count == 4
        for name in ("p12", "p13", "p23", "t123"):
            np.testing.assert_allclose(
                getattr(four, name), getattr(one, name), atol=1e-14
            )

    def test_one_hot_triple_validates(self):
        acc = MomentAccumulator(3)
        e = np.eye(3)
        _add_window(acc, e[0], e[2], e[1])
        moments = acc.finalize()
        assert moments.p12[0, 2] == 1.0
        assert moments.p12.sum() == 1.0
        assert moments.t123[0, 2, 1] == 1.0


class TestAgainstNaiveSums:
    def test_hundred_random_triples(self, rng):
        dim = 5
        f1 = rng.dirichlet(np.ones(dim), size=100)
        f2 = rng.dirichlet(np.ones(dim), size=100)
        f3 = rng.dirichlet(np.ones(dim), size=100)
        acc = MomentAccumulator(dim)
        for a, b, c in zip(f1, f2, f3):
            _add_window(acc, a, b, c)
        moments = acc.finalize()
        p12, p13, p23, t123 = naive_moment_means(f1, f2, f3)
        np.testing.assert_allclose(moments.p12, p12, atol=1e-12)
        np.testing.assert_allclose(moments.p13, p13, atol=1e-12)
        np.testing.assert_allclose(moments.p23, p23, atol=1e-12)
        np.testing.assert_allclose(moments.t123, t123, atol=1e-12)
        np.testing.assert_allclose(moments.p21, p12.T, atol=0)


class TestAddSequence:
    def test_matches_triplewise_accumulation(self, rng):
        cfg = BetaMapConfig(granularity=4)
        seq = _random_sequence(rng, 60)
        whole = MomentAccumulator(4).add_sequence(seq, cfg)
        _assert_matches_naive(whole.finalize(), reference_features(seq, 4))

    def test_two_cells(self, rng):
        cfg = BetaMapConfig(granularity=3)
        seq = _random_sequence(rng, 30, cells=2)
        whole = MomentAccumulator(6, num_blocks=2).add_sequence(seq, cfg)
        _assert_matches_naive(whole.finalize(), reference_features(seq, 3))

    def test_too_short(self):
        seq = CountSequence([1, 2], [0, 1])
        with pytest.raises(DataError, match="insufficient length"):
            MomentAccumulator(4).add_sequence(seq, BetaMapConfig(granularity=4))

    def test_dimension_mismatch(self, rng):
        seq = _random_sequence(rng, 10, cells=2)
        with pytest.raises(ParameterError, match="dimension"):
            MomentAccumulator(4).add_sequence(seq, BetaMapConfig(granularity=3))


class TestMerge:
    def test_sharded_equals_single_pass(self, rng):
        dim = 4
        f = [rng.dirichlet(np.ones(dim), size=90) for _ in range(3)]
        whole = MomentAccumulator(dim)
        first, second = MomentAccumulator(dim), MomentAccumulator(dim)
        for i in range(90):
            _add_window(whole, f[0][i], f[1][i], f[2][i])
            target = first if i < 40 else second
            _add_window(target, f[0][i], f[1][i], f[2][i])
        merged = first.merge(second)
        assert merged.count == 90
        _assert_same_moments(merged.finalize(), whole.finalize(), atol=1e-10)

    def test_commutative(self, rng):
        dim = 3
        a, b = MomentAccumulator(dim), MomentAccumulator(dim)
        for _ in range(20):
            _add_window(a, *rng.dirichlet(np.ones(dim), size=3))
            _add_window(b, *rng.dirichlet(np.ones(dim), size=3))
        _assert_same_moments(a.merge(b).finalize(), b.merge(a).finalize(), atol=1e-12)

    def test_associative(self, rng):
        dim = 3
        accs = []
        for _ in range(3):
            acc = MomentAccumulator(dim)
            for _ in range(15):
                _add_window(acc, *rng.dirichlet(np.ones(dim), size=3))
            accs.append(acc)
        left = accs[0].merge(accs[1]).merge(accs[2]).finalize()
        right = accs[0].merge(accs[1].merge(accs[2])).finalize()
        _assert_same_moments(left, right, atol=1e-10)

    def test_overlapped_split_covers_every_triple(self, rng):
        # Splitting a sequence for two workers keeps all L-2 windows when the
        # second shard rewinds two positions past the cut.
        cfg = BetaMapConfig(granularity=3)
        seq = _random_sequence(rng, 41)
        half = len(seq) // 2
        first = MomentAccumulator(3).add_sequence(seq[:half], cfg)
        second = MomentAccumulator(3).add_sequence(seq[half - 2 :], cfg)
        merged = first.merge(second)
        assert merged.count == len(seq) - 2
        full = MomentAccumulator(3).add_sequence(seq, cfg)
        _assert_same_moments(merged.finalize(), full.finalize(), atol=1e-10)

    def test_merged_halves_are_bitwise_order_free(self, rng):
        cfg = BetaMapConfig(granularity=4)
        seq = _random_sequence(rng, 101, cells=2)
        table, index = feature_table(seq, cfg)
        first = MomentAccumulator(8, num_blocks=2).add_indexed(table, index[:50])
        second = MomentAccumulator(8, num_blocks=2).add_indexed(table, index[48:])
        ab = first.merge(second).finalize()
        ba = second.merge(first).finalize()
        assert ab.count == ba.count == 99
        for name in ("p12", "p21", "p13", "p31", "p23", "p32", "t123"):
            assert np.array_equal(getattr(ab, name), getattr(ba, name)), name

    def test_merge_with_empty_is_identity(self, rng):
        acc = MomentAccumulator(3)
        for _ in range(5):
            _add_window(acc, *rng.dirichlet(np.ones(3), size=3))
        merged = acc.merge(MomentAccumulator(3))
        _assert_same_moments(merged.finalize(), acc.finalize(), atol=0)

    def test_merge_does_not_mutate_inputs(self, rng):
        a, b = MomentAccumulator(2), MomentAccumulator(2)
        _add_window(a, *rng.dirichlet(np.ones(2), size=3))
        _add_window(b, *rng.dirichlet(np.ones(2), size=3))
        before = a.finalize()
        a.merge(b)
        _assert_same_moments(a.finalize(), before, atol=0)

    def test_layout_mismatch(self):
        with pytest.raises(ParameterError, match="layouts"):
            MomentAccumulator(4).merge(MomentAccumulator(6))
        with pytest.raises(ParameterError, match="layouts"):
            MomentAccumulator(4, num_blocks=1).merge(MomentAccumulator(4, num_blocks=2))


class TestPasses:
    @pytest.mark.parametrize("widths", [(2, 3, 5), (5, 2, 3), (3, 5, 2), (1, 1, 4), (4, 4, 4)])
    def test_window_sum_matches_a_contracted_naive_triple(self, rng, widths):
        # factors of unequal widths, the widest in each of the three places
        cfg = BetaMapConfig(granularity=2)
        seq = _random_sequence(rng, 40, cells=2)
        table, index = feature_table(seq, cfg)
        x, y, z = (rng.standard_normal((4, r)) for r in widths)
        feats = reference_features(seq, 2)
        t123 = naive_moment_means(feats[:-2], feats[1:-1], feats[2:])[3] * (len(seq) - 2)
        np.testing.assert_allclose(
            window_sum(table, index, x, y, z),
            np.einsum("abc,ai,bj,ck->ijk", t123, x, y, z),
            rtol=0, atol=1e-10,
        )

    @pytest.mark.parametrize("cells, step", [(1, None), (2, None), (2, 7)])
    def test_window_fibres_match_a_contracted_naive_triple(self, rng, monkeypatch, cells, step):
        if step is not None:
            monkeypatch.setattr(moments_module, "_STEP", step)
        seq = _random_sequence(rng, 40, cells=cells)
        table, index = feature_table(seq, BetaMapConfig(granularity=2))
        x, y, z = (rng.standard_normal((2 * cells, 3)) for _ in range(3))
        feats = reference_features(seq, 2)
        t123 = naive_moment_means(feats[:-2], feats[1:-1], feats[2:])[3] * (len(seq) - 2)
        expected = (
            np.einsum("abc,bl,cl->al", t123, y, z),
            np.einsum("abc,al,cl->bl", t123, x, z),
            np.einsum("abc,al,bl->cl", t123, x, y),
        )
        for got, want in zip(_window_fibres(table, index, x, y, z), expected, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("cells, length", [(1, 3), (1, 4), (1, 50), (2, 37), (3, 20)])
    def test_pair_sums_match_naive_sums(self, rng, cells, length):
        seq = _random_sequence(rng, length, cells=cells)
        table, index = feature_table(seq, BetaMapConfig(granularity=3))
        feats = reference_features(seq, 3)
        naive = naive_moment_means(feats[:-2], feats[1:-1], feats[2:])[:3]
        for name, got, expected in zip(("s12", "s13", "s23"), pair_sums(table, index), naive):
            np.testing.assert_allclose(got, expected * (length - 2), rtol=0, atol=1e-12, err_msg=name)

    def test_factor_rows_must_match_the_features(self, rng):
        table, index = feature_table(_random_sequence(rng, 10), BetaMapConfig(granularity=3))
        with pytest.raises(ParameterError, match="rows"):
            window_sum(table, index, np.eye(3), np.eye(3), np.eye(4))


class TestSteps:
    """The passes walk the windows in steps of ``_STEP``, each step's keys cast to intp once."""

    @pytest.mark.parametrize("cells", [1, 2])
    @pytest.mark.parametrize(
        "max_cov, length, dtype",
        [
            # 38 windows: five steps of 7 and a last one of 3
            (12, 40, np.uint8),
            # 299 windows: 42 steps of 7 and a last one of 5; over 256 distinct keys
            (80, 301, np.uint16),
        ],
    )
    def test_passes_match_the_dense_oracle(
        self, rng, monkeypatch, cells, max_cov, length, dtype
    ):
        monkeypatch.setattr(moments_module, "_STEP", 7)
        seq = _random_sequence(rng, length, cells=cells, max_cov=max_cov)
        table, index = feature_table(seq, BetaMapConfig(granularity=2))
        assert index.dtype == dtype
        feats = reference_features(seq, 2)
        *pairs, t123 = naive_moment_means(feats[:-2], feats[1:-1], feats[2:])
        windows = length - 2
        for name, got, want in zip(("s12", "s13", "s23"), pair_sums(table, index), pairs):
            np.testing.assert_allclose(got, want * windows, rtol=0, atol=1e-12, err_msg=name)
        x, y, z = (rng.uniform(size=(2 * cells, r)) for r in (2, 3, 4))
        t123 = t123 * windows
        np.testing.assert_allclose(
            window_sum(table, index, x, y, z),
            np.einsum("abc,ai,bj,ck->ijk", t123, x, y, z),
            rtol=0, atol=1e-12,
        )
        x, y, z = (rng.uniform(size=(2 * cells, 3)) for _ in range(3))
        expected = (
            np.einsum("abc,bl,cl->al", t123, y, z),
            np.einsum("abc,al,cl->bl", t123, x, z),
            np.einsum("abc,al,bl->cl", t123, x, y),
        )
        for got, want in zip(_window_fibres(table, index, x, y, z), expected, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _fit_pass(table, index, rank=4):
    """The moment steps of ``ftd_fit``: the halves' pair sums, a whitened triple, a readout."""
    half = len(index) // 2
    pair_sums(table, index[:half])
    pair_sums(table, index[half - 2 :])
    dim = table.shape[1] * index.shape[1]
    w = np.random.default_rng(0).standard_normal((dim, rank))
    window_sum(table, index, w, w, w)
    _window_fibres(table, index, w, w, w)


class TestMemory:
    def test_peak_stays_below_a_distinct_key_square(self):
        # 20000 positions with coverage up to 400 give over 10k distinct keys;
        # one U x U array (over 800 MB) or U x d^2 array (over 70 MB) would
        # break the bound in the fit's pass
        gen = np.random.default_rng(7)
        cov = gen.integers(0, 401, size=20_000)
        meth = (cov * gen.uniform(size=cov.size)).astype(np.int64)
        seq = CountSequence(cov, meth)
        cfg = BetaMapConfig(granularity=30)
        table, index = feature_table(seq, cfg)
        assert len(table) >= 10_000
        tracemalloc.start()
        try:
            _fit_pass(table, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("cells", [1, 2])
    def test_keying_and_pass_peaks_are_a_few_times_the_feature_table(self, cells):
        # 100k positions at granularity 30, as in a genome-length fit.
        # Measured as multiples of table + index bytes, one cell (two cells):
        # keying 2.2x (2.7x) and the fit's pass 5.3x (4.2x), against 6.4x
        # with one cell (and an arena tracemalloc did not see) for the
        # dense-triple pass that it replaced
        gen = np.random.default_rng(0)
        cov = gen.integers(0, 40, size=(100_000, cells))
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        cfg = BetaMapConfig(granularity=30)
        feature_table(seq, cfg)  # rows cached, so the first peak is the keying's
        tracemalloc.start()
        try:
            table, index = feature_table(seq, cfg)
            _, keying = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _fit_pass(table, index)
            _, moment_pass = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = table.nbytes + index.nbytes
        assert keying < 6 * size, f"keying peak {keying / size:.1f}x table + index"
        assert moment_pass < 12 * size, f"pass peak {moment_pass / size:.1f}x table + index"


class TestConstructionErrors:
    def test_dimension_cap(self):
        MomentAccumulator(MAX_FEATURE_DIM)
        with pytest.raises(ParameterError, match="cap"):
            MomentAccumulator(MAX_FEATURE_DIM + 1)

    def test_dimension_floor(self):
        with pytest.raises(ParameterError):
            MomentAccumulator(0)

    def test_blocks_must_divide_dimension(self):
        with pytest.raises(ParameterError, match="divide"):
            MomentAccumulator(6, num_blocks=4)

    @pytest.mark.parametrize("num_blocks", [2.0, np.float64(2.0)])
    def test_block_count_must_be_an_integer(self, num_blocks):
        with pytest.raises(ParameterError, match="num_blocks must be an integer"):
            MomentAccumulator(6, num_blocks=num_blocks)
        moments = MomentAccumulator(2)
        _add_window(moments, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        moments = moments.finalize()
        with pytest.raises(ParameterError, match="num_blocks must be an integer"):
            dataclasses.replace(moments, num_blocks=num_blocks)

    def test_finalize_empty(self):
        with pytest.raises(DataError, match="empty"):
            MomentAccumulator(3).finalize()


class TestValidate:
    def _valid_set(self):
        acc = MomentAccumulator(2)
        _add_window(acc, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        return acc.finalize()

    def test_broken_sum(self):
        ms = self._valid_set()
        bad = ms.p12 + 0.1
        with pytest.raises(ParameterError, match="sum"):
            dataclasses.replace(ms, p12=bad).validate()

    def test_negative_entry(self):
        ms = self._valid_set()
        bad = ms.p13.copy()
        bad[0, 0] -= 1.5
        bad[0, 1] += 1.5
        with pytest.raises(ParameterError, match="negative"):
            dataclasses.replace(ms, p13=bad).validate()

    def test_zero_count(self):
        ms = self._valid_set()
        with pytest.raises(DataError, match="no triples"):
            dataclasses.replace(ms, count=0).validate()

    def test_matrices_are_readonly(self):
        ms = self._valid_set()
        with pytest.raises(ValueError):
            ms.p12[0, 0] = 5.0

    def test_caller_arrays_stay_writable(self):
        ms = self._valid_set()
        mine = {name: np.array(getattr(ms, name)) for name in ("p12", "p13", "p23", "t123")}
        copy = MomentSet(**mine, count=ms.count)
        for name, arr in mine.items():
            assert arr.flags.writeable
            assert not np.shares_memory(arr, getattr(copy, name))

    def test_read_only_arrays_are_kept_without_a_copy(self):
        ms = self._valid_set()
        again = dataclasses.replace(ms, count=ms.count + 1)
        for name in ("p12", "p13", "p23", "t123"):
            assert np.shares_memory(getattr(again, name), getattr(ms, name))

    def test_transposed_orientations_are_readonly_views(self):
        ms = self._valid_set()
        for name, base in (("p21", ms.p12), ("p31", ms.p13), ("p32", ms.p23)):
            view = getattr(ms, name)
            assert np.shares_memory(view, base)
            assert np.array_equal(view, base.T)
            assert not view.flags.writeable


@given(
    length=st.integers(3, 20),
    granularity=st.integers(1, 6),
    cells=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_random_sequences_produce_valid_moments(length, granularity, cells, seed):
    gen = np.random.default_rng(seed)
    seq = _random_sequence(gen, length, cells=cells)
    cfg = BetaMapConfig(granularity=granularity)
    moments = (
        MomentAccumulator(granularity * cells, num_blocks=cells)
        .add_sequence(seq, cfg)
        .finalize()
    )
    assert moments.count == length - 2
    k = cells
    assert moments.p12.sum() == pytest.approx(k * k, abs=1e-9)
    assert moments.p23.sum() == pytest.approx(k * k, abs=1e-9)
    assert moments.t123.sum() == pytest.approx(k**3, abs=1e-9)
    assert moments.validate() is moments


@given(
    length=st.integers(6, 40),
    granularity=st.integers(1, 5),
    cells=st.integers(1, 2),
    max_cov=st.sampled_from([3, 60, 2**40]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_split_pass_matches_naive_sums(length, granularity, cells, max_cov, seed):
    # the halves share one feature table and overlap by two positions, as in
    # ftd_fit; huge coverages would collide in a key that overflows int64
    gen = np.random.default_rng(seed)
    seq = _random_sequence(gen, length, cells=cells, max_cov=max_cov)
    cfg = BetaMapConfig(granularity=granularity)
    table, index = feature_table(seq, cfg)
    half = length // 2
    dim = granularity * cells
    first = MomentAccumulator(dim, num_blocks=cells).add_indexed(table, index[:half])
    second = MomentAccumulator(dim, num_blocks=cells).add_indexed(table, index[half - 2 :])
    merged = first.merge(second).finalize()
    _assert_matches_naive(merged, reference_features(seq, granularity))
