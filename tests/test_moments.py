import collections
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
from betahmm.moments import MAX_FEATURE_DIM

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


class TestCoordinateBatches:
    @pytest.mark.parametrize("budget", [1, 1000, 1 << 18, 1 << 20])
    def test_batch_size_does_not_change_the_moments(self, rng, monkeypatch, budget):
        # the budget bounds the elements of one batched product: budget 1
        # runs every key triple as a piece and a batch of its own, 1000 caps
        # a batch at 28 pieces of width 1 down to 9 of width 8, and the
        # default 2**18, like 2**20, runs every piece of one width at once
        seq = _random_sequence(rng, 60, cells=2, max_cov=8)
        cfg = BetaMapConfig(granularity=5)
        monkeypatch.setattr(moments_module, "_BATCH_ELEMENTS", budget)
        moments = MomentAccumulator(10, num_blocks=2).add_sequence(seq, cfg).finalize()
        _assert_matches_naive(moments, reference_features(seq, 5))

    @pytest.mark.parametrize("sizes", [(11,), (1,), (2,), (5,), (5, 1, 11, 2)])
    def test_pieces_of_several_widths_share_one_buffer(self, rng, monkeypatch, sizes):
        # at D = 3 a budget of 100 caps a piece at 8 triples, so the group of
        # 11 triples splits into pieces of widths 8 and 4, and the groups of
        # 1, 2 and 5 pad to widths 1, 2 and 8; chunks of every width run
        # through the pass's one buffer, larger and smaller ones in turn
        monkeypatch.setattr(moments_module, "_BATCH_ELEMENTS", 100)
        outer = 6  # keys 0-5 are first and last keys; key outer + k heads group k
        keys = []
        for k, size in enumerate(sizes):
            for code in rng.choice(outer * outer, size=size, replace=False).tolist():
                keys += [code // outer, outer + k, code % outer]
        table = rng.dirichlet(np.ones(3), size=outer + len(sizes))
        moments = MomentAccumulator(3).add_indexed(table, np.array(keys)[:, None]).finalize()
        _assert_matches_naive(moments, table[keys])

    def test_three_cells_share_one_buffer(self, rng, monkeypatch):
        # the 27 blocks of one pass take their chunks from the buffer that
        # the first block allocates, each block leaving stale values behind
        monkeypatch.setattr(moments_module, "_BATCH_ELEMENTS", 100)
        seq = _random_sequence(rng, 50, cells=3, max_cov=6)
        cfg = BetaMapConfig(granularity=3)
        moments = MomentAccumulator(9, num_blocks=3).add_sequence(seq, cfg).finalize()
        _assert_matches_naive(moments, reference_features(seq, 3))


class TestTripleCounts:
    @pytest.mark.parametrize("size", [7, 2000, 1 << 22])
    def test_matches_a_counter(self, rng, size):
        # int32 keys: a cubed key code of 2000 keys overflows int32, and from
        # 2**21 keys on it would overflow int64
        keys = rng.integers(size - 5, size, size=(3, 200)).astype(np.int32)
        mid, first, last, counts = moments_module._triple_counts(*keys, size)
        expected = collections.Counter(zip(*keys.tolist()))
        assert list(zip(mid.tolist(), first.tolist(), last.tolist())) == sorted(expected)
        assert counts.tolist() == [expected[key] for key in sorted(expected)]


class TestMemory:
    def test_peak_stays_below_a_distinct_key_square(self):
        # 20000 positions with coverage up to 400 give over 10k distinct keys;
        # one U x U array (over 800 MB) or U x d^2 array (over 70 MB) would
        # break the bound
        gen = np.random.default_rng(7)
        cov = gen.integers(0, 401, size=20_000)
        meth = (cov * gen.uniform(size=cov.size)).astype(np.int64)
        seq = CountSequence(cov, meth)
        cfg = BetaMapConfig(granularity=30)
        table, index = feature_table(seq, cfg)
        assert len(table) >= 10_000
        acc = MomentAccumulator(30)
        tracemalloc.start()
        try:
            acc.add_indexed(table, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acc.count == len(seq) - 2
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_keying_and_pass_peaks_are_a_few_times_the_feature_table(self):
        # 100k positions of one cell at granularity 30, as in a genome-length
        # fit. Measured as multiples of table + index bytes: keying 3.5x and
        # the pass 8.3x; 10.5x and 18.4x with two np.unique passes and a
        # 2**20-element batch
        gen = np.random.default_rng(0)
        cov = gen.integers(0, 40, size=100_000)
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        cfg = BetaMapConfig(granularity=30)
        feature_table(seq, cfg)  # rows cached, so the first peak is the keying's
        tracemalloc.start()
        try:
            table, index = feature_table(seq, cfg)
            _, keying = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            MomentAccumulator(30).add_indexed(table, index)
            _, moment_pass = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = table.nbytes + index.nbytes
        assert keying < 6 * size, f"keying peak {keying / size:.1f}x table + index"
        assert moment_pass < 12 * size, f"pass peak {moment_pass / size:.1f}x table + index"

    def test_short_pass_keeps_a_small_peak(self, monkeypatch):
        # 512 positions of one cell at granularity 30, as in the sweep's short
        # fits. The scratch arena fits the pass's own largest chunk, here
        # about seventy width-1 pieces with a 30 x 30 product each (0.7 MiB
        # with the contraction), and with it the pass holds 1.2 MiB; an arena
        # sized to the whole budget, 2**18 elements (2 MiB) plus the 30**3
        # contraction, would break the 1.5 MiB bound on its own. tracemalloc
        # does not see the arena's own mapping, so its bytes are added
        sizes = []
        take = moments_module._Arena.take
        monkeypatch.setattr(
            moments_module._Arena, "take", lambda arena, size: sizes.append(size) or take(arena, size)
        )
        gen = np.random.default_rng(0)
        cov = gen.poisson(25, size=512)
        seq = CountSequence(cov, gen.binomial(cov, 0.4))
        table, index = feature_table(seq, BetaMapConfig(granularity=30))
        tracemalloc.start()
        try:
            MomentAccumulator(30).add_indexed(table, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = peak + 8 * max(sizes)
        assert held < 1.5 * 2**20, f"peak {held / 2**20:.2f} MiB"


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
