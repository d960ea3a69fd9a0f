import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betahmm import (
    CountSequence,
    DataError,
    HmmParams,
    Observation,
    ParameterError,
    validate_params,
)
from betahmm import model as model_module
from betahmm.em import EmConfig, em_fit
from betahmm.features import BetaMapConfig, FtdConfig
from betahmm.io import load_methylation_tsv, write_methylation_tsv
from betahmm.moments import MomentAccumulator
from betahmm.pipeline import ftd_fit, ftd_fit_moments, ftd_then_em
from betahmm.spectral import tensor_power_method
from betahmm.synth import SynthConfig, run_benchmark, sample_sequence


def _params(pi, T, p):
    return HmmParams(
        initial_dist=np.asarray(pi, dtype=float),
        transition=np.asarray(T, dtype=float),
        meth_probs=np.asarray(p, dtype=float),
    )


class TestObservation:
    def test_valid(self):
        obs = Observation(coverage=5, meth_count=3)
        assert obs.coverage == 5 and obs.meth_count == 3

    def test_zero_coverage_forces_zero_meth(self):
        assert Observation(0, 0).meth_count == 0
        with pytest.raises(ParameterError):
            Observation(0, 1)

    def test_negative_coverage(self):
        with pytest.raises(ParameterError, match="coverage"):
            Observation(-1, 0)

    def test_meth_above_coverage(self):
        with pytest.raises(ParameterError, match="outside"):
            Observation(3, 4)


class TestCountSequence:
    def test_one_dim_promotes_to_single_cell(self):
        seq = CountSequence([3, 2, 5], [1, 0, 4])
        assert seq.num_cells == 1
        assert seq.coverage.shape == (3, 1)

    def test_len_and_cells(self):
        seq = CountSequence([[3, 4], [2, 2]], [[1, 0], [2, 1]])
        assert len(seq) == 2
        assert seq.num_cells == 2

    def test_arrays_are_immutable(self):
        seq = CountSequence([3, 2], [1, 0])
        with pytest.raises(ValueError):
            seq.coverage[0, 0] = 7

    def test_read_only_int64_is_kept_and_anything_else_copied(self):
        cov = np.array([[3], [2]], dtype=np.int64)
        meth = np.array([[1], [0]], dtype=np.int64)
        meth.setflags(write=False)
        seq = CountSequence(cov, meth)
        assert seq.meth is meth
        assert not np.shares_memory(seq.coverage, cov)
        cov[0, 0] = 7
        assert seq.coverage[0, 0] == 3

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shapes"):
            CountSequence([[3, 4]], [[1]])

    def test_negative_coverage_reports_position(self):
        with pytest.raises(DataError, match="position 1"):
            CountSequence([3, -2, 5], [1, 0, 4])

    def test_meth_above_coverage_reports_position(self):
        with pytest.raises(DataError, match="position 2"):
            CountSequence([3, 2, 5], [1, 0, 6])

    @pytest.mark.parametrize("num_cells", [1, 3])
    def test_checks_in_steps_name_the_first_bad_entry(self, monkeypatch, num_cells):
        # steps of 4 rows: the bad entries sit past the first step, and a
        # negative coverage outranks an earlier meth count above its coverage
        monkeypatch.setattr(model_module, "_STEP", 4)
        cov = np.full((11, num_cells), 5)
        meth = np.full((11, num_cells), 2)
        meth[6, -1] = 6
        with pytest.raises(DataError, match=rf"outside \[0, coverage\] at position 6, cell {num_cells - 1}$"):
            CountSequence(cov, meth)
        meth[5, 0] = -1
        with pytest.raises(DataError, match=r"outside \[0, coverage\] at position 5, cell 0$"):
            CountSequence(cov, meth)
        cov[9, -1] = -3
        with pytest.raises(DataError, match=rf"negative coverage at position 9, cell {num_cells - 1}$"):
            CountSequence(cov, meth)
        cov[4, 0] = -1
        with pytest.raises(DataError, match=r"negative coverage at position 4, cell 0$"):
            CountSequence(cov, meth)

    def test_check_holds_one_step_of_temporaries(self):
        # read-only int64 columns are kept as given, so the checks are the
        # constructor's only memory. Measured: 0.25 MiB at 2**20 rows, against
        # 2.0 MiB when each check made a whole-length boolean mask
        cov = np.full((1 << 20, 1), 30, dtype=np.int64)
        meth = np.full((1 << 20, 1), 7, dtype=np.int64)
        cov.setflags(write=False)
        meth.setflags(write=False)
        tracemalloc.start()
        try:
            seq = CountSequence(cov, meth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seq.coverage is cov and seq.meth is meth
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_slicing_returns_sequence(self):
        seq = CountSequence([3, 2, 5, 1], [1, 0, 4, 0])
        sub = seq[1:3]
        assert isinstance(sub, CountSequence)
        assert len(sub) == 2
        assert sub.coverage[0, 0] == 2

    def test_slice_shares_the_parent_storage(self):
        seq = CountSequence([[3, 4], [2, 2], [5, 1], [1, 1]], [[1, 0], [2, 1], [4, 0], [0, 1]])
        sub = seq[1:3]
        assert np.shares_memory(sub.coverage, seq.coverage)
        assert np.shares_memory(sub.meth, seq.meth)
        assert not sub.coverage.flags.writeable
        assert not sub.meth.flags.writeable
        assert sub.num_cells == 2
        assert sub.meth.tolist() == [[2, 1], [4, 0]]

    def test_empty_and_strided_slices(self):
        seq = CountSequence([3, 2, 5, 1], [1, 0, 4, 0])
        assert len(seq[4:]) == 0
        assert seq[::-2].coverage[:, 0].tolist() == [1, 2]

    def test_integer_indexing_rejected(self):
        seq = CountSequence([3, 2], [1, 0])
        with pytest.raises(TypeError):
            seq[0]

    def test_cell_view(self):
        seq = CountSequence([[3, 4], [2, 2]], [[1, 0], [2, 1]])
        right = seq.cell(1)
        assert right.num_cells == 1
        assert list(right.coverage[:, 0]) == [4, 2]

    def test_cell_index_out_of_range(self):
        seq = CountSequence([[3, 4], [2, 2]], [[1, 0], [2, 1]])
        with pytest.raises(IndexError):
            seq.cell(2)

    def test_negative_cell_index_counts_from_the_end(self):
        seq = CountSequence([[3, 4], [2, 2]], [[1, 0], [2, 1]])
        last = seq.cell(-1)
        assert last.num_cells == 1
        assert last.meth[:, 0].tolist() == [0, 1]

    def test_from_observations(self):
        seq = CountSequence.from_observations(
            [Observation(2, 1), (Observation(3, 0),)]
        )
        assert len(seq) == 2 and seq.num_cells == 1

    def test_from_observations_ragged(self):
        rows = [(Observation(2, 1),), (Observation(3, 0), Observation(1, 1))]
        with pytest.raises(DataError):
            CountSequence.from_observations(rows)

    def test_from_observations_empty(self):
        with pytest.raises(DataError):
            CountSequence.from_observations([])


class TestValidateParams:
    def test_identity_transition_valid(self):
        params = _params([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0])
        assert validate_params(params) is params

    def test_idempotent(self):
        params = _params([0.3, 0.7], [[0.9, 0.2], [0.1, 0.8]], [0.1, 0.6])
        once = validate_params(params)
        twice = validate_params(once)
        assert twice is params

    def test_initial_dist_sum(self):
        with pytest.raises(ParameterError, match="sums to 1.2"):
            validate_params(_params([0.6, 0.6], np.eye(2), [0.1, 0.2]))

    def test_negative_initial_entry(self):
        with pytest.raises(ParameterError, match="entry 1 is negative"):
            validate_params(_params([1.2, -0.2], np.eye(2), [0.1, 0.2]))

    def test_transition_column_sum(self):
        T = [[0.3, 0.5], [0.6, 0.5]]
        with pytest.raises(ParameterError, match="transition column 0 sums to"):
            validate_params(_params([0.5, 0.5], T, [0.1, 0.2]))

    def test_transition_shape(self):
        with pytest.raises(ParameterError, match="shape"):
            validate_params(_params([0.5, 0.5], np.eye(3), [0.1, 0.2]))

    def test_prob_out_of_range(self):
        with pytest.raises(ParameterError, match="outside"):
            validate_params(_params([0.5, 0.5], np.eye(2), [0.1, 1.2]))

    def test_multi_cell_probs(self):
        p = [[0.1, 0.9], [0.2, 0.8]]
        params = validate_params(_params([0.5, 0.5], np.eye(2), p))
        assert params.num_cells == 2
        assert params.cell_probs().shape == (2, 2)

    def test_one_row_matrix_is_stored_as_a_vector(self):
        params = validate_params(_params([0.5, 0.5], np.eye(2), [[0.1, 0.9]]))
        assert params.meth_probs.shape == (2,)
        assert params.num_cells == 1
        assert params.cell_probs().tolist() == [[0.1, 0.9]]

    def test_non_finite(self):
        with pytest.raises(ParameterError, match="non-finite"):
            validate_params(_params([0.5, np.nan], np.eye(2), [0.1, 0.2]))

    def test_zero_cells_rejected(self):
        with pytest.raises(ParameterError, match="at least one cell"):
            _params([0.5, 0.5], np.eye(2), np.zeros((0, 2)))


class TestConstructionValidates:
    def test_bad_transition_column_raises_on_construction(self):
        T = [[0.3, 0.5], [0.6, 0.5]]  # column 0 sums to 0.9
        with pytest.raises(ParameterError, match="transition column 0 sums to"):
            HmmParams(initial_dist=[0.5, 0.5], transition=T, meth_probs=[0.1, 0.2])


@given(
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_validate_accepts_normalized_random_params(m, seed):
    gen = np.random.default_rng(seed)
    pi = gen.dirichlet(np.ones(m))
    T = np.column_stack([gen.dirichlet(np.ones(m)) for _ in range(m)])
    p = gen.uniform(0.0, 1.0, size=m)
    params = _params(pi, T, p)
    assert validate_params(params) is params


_SEQ = CountSequence(np.full(40, 6), np.arange(40) % 7)
_TWO_STATES = HmmParams(
    initial_dist=[0.5, 0.5], transition=[[0.9, 0.1], [0.1, 0.9]], meth_probs=[0.2, 0.8]
)

# each count or seed setting, called with a value: every one is checked where
# the setting is made, before any work is done
_SETTINGS = {
    "BetaMapConfig.granularity": ("granularity", lambda v: BetaMapConfig(v)),
    "FtdConfig.granularity": ("granularity", lambda v: FtdConfig(granularity=v)),
    "SynthConfig.num_states": ("num_states", lambda v: SynthConfig(num_states=v)),
    "SynthConfig.num_cells": ("num_cells", lambda v: SynthConfig(num_cells=v)),
    "SynthConfig.trials": ("trials", lambda v: SynthConfig(trials=v)),
    "SynthConfig.lengths": ("benchmark length", lambda v: SynthConfig(lengths=(128, v))),
    "SynthConfig.seed": ("seed", lambda v: SynthConfig(seed=v)),
    "EmConfig.max_iters": ("max_iters", lambda v: EmConfig(max_iters=v)),
    "EmConfig.seed": ("seed", lambda v: EmConfig(seed=v)),
    "sample_sequence.length": ("length", lambda v: sample_sequence(_TWO_STATES, v, 5.0, 0)),
    "em_fit.num_states": ("num_states", lambda v: em_fit(_SEQ, v, EmConfig())),
    "ftd_fit.num_states": ("num_states", lambda v: ftd_fit(_SEQ, v)),
    "ftd_fit_moments.num_states": (
        "num_states",
        lambda v: ftd_fit_moments(
            MomentAccumulator(4).add_sequence(_SEQ, BetaMapConfig(4)).finalize(), v, [0.125]
        ),
    ),
    "ftd_then_em.rounds": ("rounds", lambda v: ftd_then_em(_SEQ, 2, FtdConfig(4), rounds=v)),
    "MomentAccumulator.feature_dim": ("feature_dim", lambda v: MomentAccumulator(v)),
    "tensor_power_method.iters_per_component": (
        "iters_per_component", lambda v: tensor_power_method(np.ones((2, 2, 2)), 1, v)
    ),
    "tensor_power_method.restarts": (
        "restarts", lambda v: tensor_power_method(np.ones((2, 2, 2)), 1, restarts=v)
    ),
    "load_methylation_tsv.bin_size": (
        "bin_size", lambda v: load_methylation_tsv("no-such-table.tsv", bin_size=v)
    ),
    "write_methylation_tsv.bin_size": (
        "bin_size", lambda v: write_methylation_tsv("never-written.tsv", _SEQ, bin_size=v)
    ),
    "run_benchmark.threads": (
        "threads", lambda v: run_benchmark(SynthConfig(lengths=(16,), trials=1), threads=v)
    ),
}

# the smallest value each setting takes where it is not 1; a seed's is 0
_MINIMUM = {"SynthConfig.lengths": 3, "ftd_then_em.rounds": 0, "SynthConfig.seed": 0,
            "EmConfig.seed": 0}


class TestIntegerSettings:
    @pytest.mark.parametrize("setting", sorted(_SETTINGS))
    @pytest.mark.parametrize("value", [8.0, 2.5, math.nan, math.inf, np.float64(4.0)])
    def test_a_value_that_is_not_an_integer_is_refused(self, setting, value):
        name, make = _SETTINGS[setting]
        with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got "):
            make(value)

    @pytest.mark.parametrize("setting", sorted(_SETTINGS))
    def test_a_value_below_the_minimum_is_refused(self, setting):
        name, make = _SETTINGS[setting]
        low = _MINIMUM.get(setting, 1) - 1
        with pytest.raises(ParameterError, match=rf"^{name} must be >= {low + 1}, got {low}$"):
            make(low)

    @pytest.mark.parametrize("value", [np.int64(3), True, 7])
    def test_numpy_and_python_integers_are_taken(self, value):
        model_module._check_integer("count", value, 1)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -1.0])
    def test_moment_ridge_lies_in_zero_to_inf(self, ridge):
        with pytest.raises(ParameterError, match=r"^moment_ridge must lie in \[0, inf\), got "):
            FtdConfig(moment_ridge=ridge)
