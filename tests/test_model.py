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

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shapes"):
            CountSequence([[3, 4]], [[1]])

    def test_negative_coverage_reports_position(self):
        with pytest.raises(DataError, match="position 1"):
            CountSequence([3, -2, 5], [1, 0, 4])

    def test_meth_above_coverage_reports_position(self):
        with pytest.raises(DataError, match="position 2"):
            CountSequence([3, 2, 5], [1, 0, 6])

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
