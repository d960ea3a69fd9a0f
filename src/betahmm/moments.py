"""Co-occurrence moments of consecutive feature triples.

For a feature-mapped sequence, every overlapping window (t, t+1, t+2)
contributes the pairwise outer products of its three feature vectors and one
order-3 outer product. The accumulator keeps plain running sums of those
products; accumulators built on disjoint shards merge by adding their sums.

The pass works from distinct (coverage, count) keys, not from positions. A
sequence arrives as a feature table F with one row per distinct key, and each
position's row index (``features.feature_table``). A pair moment block is
``F.T @ N @ F``, where N is the sparse matrix of integer counts of key pairs
at the two lags (at most one entry per window, never a dense U x U array).
The triple moment is grouped by the middle key v: ``G_v = A_v.T @ C_v`` sums
the outer products of the first and last feature vectors over the windows
whose middle key is v, and the tensor is ``sum_v F[v] (x) G_v``. Row i of
every ``G_v`` is the sparse (middle key, last key) matrix, weighted by
coordinate i of the first vectors summed per pair, times F. Batches of
coordinates share one stacked sparse product, sized so their working arrays
stay within a fixed number of elements (one coordinate at least). Work is
O(n d + nnz d^2 + U d^3) for n windows, nnz distinct key pairs and U distinct
keys. Memory is O(n + U d) beyond that bound: a U x d^2 array forms only when
it fits within the bound, and a U x U array never. No loop runs over
positions or keys.

Dense storage is used for the moments; the feature dimension is capped so the
order-3 array stays manageable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .features import BetaMapConfig, feature_table
from .model import CountSequence

__all__ = ["MomentSet", "MomentAccumulator", "MAX_FEATURE_DIM"]

MAX_FEATURE_DIM = 256

# float64-sized elements of working memory for one batch of coordinates in
# the triple pass; bounds it whatever the number of distinct keys
_BATCH_ELEMENTS = 1 << 20

# a pair moment of k cells sums to k**2 and the triple to k**3; validation
# allows this tolerance times max(1, total)
_SUM_TOL = 1e-9


def _pair_counts(rows: np.ndarray, cols: np.ndarray, size: int):
    """Sparse count matrix of (row key, column key) pairs over positions.

    Entry [u, w] counts the positions whose row key is u and column key is w.
    Also returns, for each position, the slot of its pair in the matrix's
    data array.
    """
    # imported here: only spectral fits need it. scipy.sparse costs about
    # 0.2 s CPU on a start without scipy, but about 20 ms once the feature
    # map's scipy.special is loaded, since the two share scipy's internals
    from scipy.sparse import csr_matrix

    codes, slot = np.unique(rows * size + cols, return_inverse=True)
    indptr = np.searchsorted(codes, np.arange(size + 1) * size)
    counts = np.bincount(slot, minlength=codes.size)
    return csr_matrix((counts, codes % size, indptr), shape=(size, size)), slot


def _triple_block(table: np.ndarray, pairs, slot: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Sum over windows of F[first] (x) F[middle] (x) F[last], grouped by middle key.

    ``pairs`` counts the (middle key, last key) pairs of the windows and
    ``slot`` maps each window to its pair. Weighting each pair by coordinate
    i of its summed first vectors instead of its count gives row i of every
    ``G_v = A_v.T @ C_v`` in one sparse product with F; contracting with
    ``F[v]`` gives slice i of the block. Coordinates go in batches whose
    working arrays stay within ``_BATCH_ELEMENTS``.
    """
    from scipy.sparse import csr_matrix

    size, D = table.shape
    nnz = pairs.nnz
    # summed first vectors of each pair's windows are firsts @ table
    firsts = csr_matrix((np.ones(slot.size), (slot, first)), shape=(nnz, size))
    step = max(1, min(D, _BATCH_ELEMENTS // (size * D + 3 * nnz)))
    offsets = np.arange(step)[:, None] * nnz
    out = np.empty((D, D, D))
    for lo in range(0, D, step):
        width = min(step, D - lo)
        weights = (firsts @ table[:, lo : lo + width]).T.ravel()
        indptr = np.append((pairs.indptr[:-1] + offsets[:width]).ravel(), width * nnz)
        stacked = csr_matrix(
            (weights, np.tile(pairs.indices, width), indptr), shape=(width * size, size)
        )
        out[lo : lo + width] = table.T @ (stacked @ table).reshape(width, size, D)
    return out


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Finalized empirical moments: six pairwise orientations and the triple.

    ``p12[i, j]`` is the mean of (first vector)_i * (second vector)_j over all
    accumulated triples; transposed orientations are exact transposes by
    construction. ``t123`` is the mean order-3 outer product.
    """

    p12: np.ndarray
    p21: np.ndarray
    p13: np.ndarray
    p31: np.ndarray
    p23: np.ndarray
    p32: np.ndarray
    t123: np.ndarray
    count: int
    num_blocks: int = 1

    def __post_init__(self) -> None:
        for name in ("p12", "p21", "p13", "p31", "p23", "p32", "t123"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.p12.shape[0]

    def validate(self) -> "MomentSet":
        """Check normalization and symmetry bookkeeping; returns self."""
        k = self.num_blocks
        d = self.dim
        if self.count < 1:
            raise DataError("moment set holds no triples")
        for name in ("p12", "p13", "p23"):
            mat = getattr(self, name)
            if mat.shape != (d, d):
                raise ParameterError(f"{name} has shape {mat.shape}, expected {(d, d)}")
            if float(mat.min()) < -1e-12:
                raise ParameterError(f"{name} has a negative entry ({mat.min()})")
            total = float(mat.sum())
            if abs(total - k * k) > _SUM_TOL * max(1.0, k * k):
                raise ParameterError(
                    f"{name} entries sum to {total}, expected {k * k}"
                )
        for a, b in (("p21", "p12"), ("p31", "p13"), ("p32", "p23")):
            if not np.array_equal(getattr(self, a), getattr(self, b).T):
                raise ParameterError(f"{a} is not the exact transpose of {b}")
        if self.t123.shape != (d, d, d):
            raise ParameterError(f"t123 has shape {self.t123.shape}, expected {(d, d, d)}")
        if float(self.t123.min()) < -1e-12:
            raise ParameterError(f"t123 has a negative entry ({self.t123.min()})")
        total = float(self.t123.sum())
        if abs(total - k**3) > _SUM_TOL * max(1.0, k**3):
            raise ParameterError(f"t123 entries sum to {total}, expected {k**3}")
        return self


class MomentAccumulator:
    """Running sums of pairwise and triple outer products.

    Every input goes through one pass, ``add_indexed``, which takes a
    sequence as feature-table rows; ``add_sequence`` maps a count sequence
    through ``features.feature_table`` first. ``merge`` adds the sums of
    accumulators built on disjoint shards. ``finalize`` divides by the triple
    count and returns a validated :class:`MomentSet`.
    """

    def __init__(self, feature_dim: int, num_blocks: int = 1) -> None:
        if feature_dim < 1:
            raise ParameterError(f"feature_dim must be >= 1, got {feature_dim}")
        if feature_dim > MAX_FEATURE_DIM:
            raise ParameterError(
                f"feature_dim {feature_dim} exceeds the dense-storage cap {MAX_FEATURE_DIM}"
            )
        if num_blocks < 1 or feature_dim % num_blocks != 0:
            raise ParameterError(
                f"num_blocks {num_blocks} does not divide feature_dim {feature_dim}"
            )
        self.feature_dim = feature_dim
        self.num_blocks = num_blocks
        self.count = 0
        d = feature_dim
        self._p12 = np.zeros((d, d))
        self._p13 = np.zeros((d, d))
        self._p23 = np.zeros((d, d))
        self._t123 = np.zeros((d, d, d))

    def add_sequence(self, seq: CountSequence, cfg: BetaMapConfig) -> "MomentAccumulator":
        """Accumulate every overlapping triple of ``seq``."""
        table, index = feature_table(seq, cfg)
        return self.add_indexed(table, index)

    def add_indexed(self, table: np.ndarray, index: np.ndarray) -> "MomentAccumulator":
        """Accumulate every window of a sequence given as feature-table rows.

        ``table`` has one feature row per distinct key, shape (U, D), and
        ``index[t, j]`` is the row of cell j at position t, so each position
        maps to the concatenation of its cells' rows. Loops run over cells and
        over batches of coordinates only.
        """
        length, cells = index.shape
        if length < 3:
            raise DataError(f"insufficient length: need at least 3 positions, got {length}")
        size, D = table.shape
        if D * cells != self.feature_dim:
            raise ParameterError(
                f"sequence maps to dimension {D * cells}, accumulator expects {self.feature_dim}"
            )
        first, middle, last = index[:-2], index[1:-1], index[2:]
        block = [slice(j * D, (j + 1) * D) for j in range(cells)]
        for a in range(cells):
            for b in range(cells):
                n12, _ = _pair_counts(first[:, a], middle[:, b], size)
                n13, _ = _pair_counts(first[:, a], last[:, b], size)
                self._p12[block[a], block[b]] += table.T @ (n12 @ table)
                self._p13[block[a], block[b]] += table.T @ (n13 @ table)
        for b in range(cells):
            for c in range(cells):
                pairs, slot = _pair_counts(middle[:, b], last[:, c], size)
                self._p23[block[b], block[c]] += table.T @ (pairs @ table)
                for a in range(cells):
                    self._t123[block[a], block[b], block[c]] += _triple_block(
                        table, pairs, slot, first[:, a]
                    )
        self.count += length - 2
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """A new accumulator equal to this one plus ``other`` (shard reduction)."""
        if other.feature_dim != self.feature_dim or other.num_blocks != self.num_blocks:
            raise ParameterError("cannot merge accumulators with different layouts")
        out = MomentAccumulator(self.feature_dim, self.num_blocks)
        out.count = self.count + other.count
        for name in ("_p12", "_p13", "_p23", "_t123"):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out

    def finalize(self) -> MomentSet:
        """Normalized moment means over everything accumulated so far."""
        if self.count < 1:
            raise DataError("cannot finalize an empty accumulator")
        n = float(self.count)
        p12 = self._p12 / n
        p13 = self._p13 / n
        p23 = self._p23 / n
        moments = MomentSet(
            p12=p12,
            p21=p12.T.copy(),
            p13=p13,
            p31=p13.T.copy(),
            p23=p23,
            p32=p23.T.copy(),
            t123=self._t123 / n,
            count=self.count,
            num_blocks=self.num_blocks,
        )
        return moments.validate()
