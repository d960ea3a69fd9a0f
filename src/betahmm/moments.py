"""Co-occurrence moments of consecutive feature triples.

A sequence arrives as a feature table F, one row per distinct (coverage,
count) key, and each position's row of every cell (``features.feature_table``);
position t's feature vector f_t is its cells' rows side by side. Every
overlapping window (t, t+1, t+2) contributes its three vectors.

Two passes read the windows through their keys with ``np.bincount``: a
bincount of one key column, weighted by values gathered from the other
positions of each window, sums those values per key, and a product with the
table's rows finishes the sum. Neither forms an array larger than n or U x D
for n windows, U distinct keys and feature dimension D, and neither loops over
positions or keys.

- ``pair_sums`` gives the three D x D pair sums, with one bincount per
  feature column, cell pair and lag.
- ``window_sum`` gives the sum of (x.T f_t) (x) (y.T f_{t+1}) (x) (z.T f_{t+2})
  for any three factor matrices, with one bincount per column pair of the two
  narrower factors. The spectral fit calls it with whitened factors of a few
  columns, so it never forms the D x D x D triple.

``MomentAccumulator`` keeps that dense triple, summed by ``window_sum`` with
identity factors, for finalized moment sets and shard merges; its pair moments
are marginals of the triple. Its feature dimension is capped so the order-3
array stays manageable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .features import BetaMapConfig, feature_table
from .model import CountSequence

__all__ = ["MomentSet", "MomentAccumulator", "MAX_FEATURE_DIM", "pair_sums", "window_sum"]

MAX_FEATURE_DIM = 256

# windows per step of window_sum; its scratch is three float64 columns of
# this length (768 KB)
_STEP = 1 << 15

# a pair moment of k cells sums to k**2 and the triple to k**3; validation
# allows this tolerance times max(1, total)
_SUM_TOL = 1e-9


def pair_sums(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window sums of f_t (x) f_{t+1}, f_t (x) f_{t+2} and f_{t+1} (x) f_{t+2}.

    ``index[t, j]`` is the table row of cell j at position t; the n - 2
    windows of n positions are summed. The block of cells (a, b) at lag k is
    ``table.T @ Z.T``, where row j of Z bincounts cell a's keys weighted by
    column j of cell b's rows k positions later. The first and third sums
    share the lag-1 sum over the inner windows and add one end pair each.
    """
    length, cells = index.shape
    size, D = table.shape
    columns = np.ascontiguousarray(table.T)
    weights = np.empty(length)

    def lagged(lag: int, lo: int, hi: int) -> np.ndarray:
        out = np.empty((cells * D, cells * D))
        z = np.empty((D, size))
        w = weights[: hi - lo]
        for a in range(cells):
            keys = index[lo:hi, a]
            for b in range(cells):
                later = index[lo + lag : hi + lag, b]
                for j, column in enumerate(columns):
                    np.take(column, later, out=w, mode="clip")
                    z[j] = np.bincount(keys, w, minlength=size)
                out[a * D : (a + 1) * D, b * D : (b + 1) * D] = columns @ z.T
        return out

    def outer(s: int, t: int) -> np.ndarray:
        return np.outer(table[index[s]].ravel(), table[index[t]].ravel())

    inner = lagged(1, 1, length - 2)
    return inner + outer(0, 1), lagged(2, 0, length - 2), inner + outer(length - 2, length - 1)


def window_sum(
    table: np.ndarray, index: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Sum over windows of (x.T f_t) (x) (y.T f_{t+1}) (x) (z.T f_{t+2}).

    ``x``, ``y`` and ``z`` have one row per feature coordinate; the result has
    one axis per factor, of its column count. Each factor is first folded into
    every cell's table rows. The keys at the widest factor's position are then
    bincounted once per column pair of the other two, weighted by the product
    of their gathered projections, and the bincount times the widest factor's
    projection gives one fibre of the result.
    """
    windows = index.shape[0] - 2
    cells = index.shape[1]
    size, D = table.shape
    factors = (x, y, z)
    for f in factors:
        if f.shape[0] != D * cells:
            raise ParameterError(f"factor has {f.shape[0]} rows, features have {D * cells}")
    # proj[k][j] is cell j's table rows projected on factor k, one row per column
    proj = [
        np.stack([(table @ f[j * D : (j + 1) * D]).T for j in range(cells)]) for f in factors
    ]
    wide = max(range(3), key=lambda k: factors[k].shape[1])
    p, q = (k for k in range(3) if k != wide)
    out = np.zeros((factors[p].shape[1], factors[q].shape[1], factors[wide].shape[1]))
    # the windows go in steps whose gathered columns share one block of
    # scratch: fresh n-length temporaries in every call cost as much again in
    # page faults, and a step's columns stay in cache
    scratch = np.empty((3, min(windows, _STEP)))
    for lo in range(0, windows, _STEP):
        keys = [index[k + lo : k + min(windows, lo + _STEP)] for k in range(3)]
        first, weights, part = scratch[:, : len(keys[0])]

        def gather(k: int, i: int, dest: np.ndarray) -> np.ndarray:
            """Column i of factor k's projections, summed over cells, at each window."""
            np.take(proj[k][0, i], keys[k][:, 0], out=dest, mode="clip")
            for j in range(1, cells):
                dest += np.take(proj[k][j, i], keys[k][:, j], out=part, mode="clip")
            return dest

        for i in range(out.shape[0]):
            gather(p, i, first)
            for j in range(out.shape[1]):
                np.multiply(first, gather(q, j, weights), out=weights)
                for c in range(cells):
                    out[i, j] += proj[wide][c] @ np.bincount(
                        keys[wide][:, c], weights, minlength=size
                    )
    # axes are (p, q, wide) with p < q; move the widest factor's axis home
    return np.moveaxis(out, 2, wide)


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Finalized empirical moments: three pair moments and the triple.

    ``p12[i, j]`` is the mean of (first vector)_i * (second vector)_j over all
    accumulated triples, and ``t123`` is the mean order-3 outer product. The
    arrays are stored read-only, each pair moment once: ``p21``, ``p31`` and
    ``p32`` are transposed views, exact by construction and never checked. An
    array the caller can still write is copied first, so it stays writable;
    a read-only one is kept as it is. Construction checks that ``num_blocks``
    divides the dimension; ``MomentAccumulator.finalize`` checks shapes,
    signs and sums (``validate``).
    """

    p12: np.ndarray
    p13: np.ndarray
    p23: np.ndarray
    t123: np.ndarray
    count: int
    num_blocks: int = 1

    def __post_init__(self) -> None:
        for name in ("p12", "p13", "p23", "t123"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.flags.writeable:  # the caller's to write: keep a copy
                arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.num_blocks < 1 or self.dim % self.num_blocks != 0:
            raise ParameterError(
                f"moment dimension {self.dim} is not divisible by its block count {self.num_blocks}"
            )

    p21 = property(lambda self: self.p12.T)
    p31 = property(lambda self: self.p13.T)
    p32 = property(lambda self: self.p23.T)

    @property
    def dim(self) -> int:
        return self.p12.shape[0]

    def validate(self) -> "MomentSet":
        """Check shapes, non-negativity and normalization; returns self."""
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
        if self.t123.shape != (d, d, d):
            raise ParameterError(f"t123 has shape {self.t123.shape}, expected {(d, d, d)}")
        if float(self.t123.min()) < -1e-12:
            raise ParameterError(f"t123 has a negative entry ({self.t123.min()})")
        total = float(self.t123.sum())
        if abs(total - k**3) > _SUM_TOL * max(1.0, k**3):
            raise ParameterError(f"t123 entries sum to {total}, expected {k**3}")
        return self


class MomentAccumulator:
    """Running sums of triple outer products; pair moments are their marginals.

    Every input goes through one pass, ``add_indexed``, which takes a
    sequence as feature-table rows and sums its dense triple with
    ``window_sum``; ``add_sequence`` maps a count sequence
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
        self._t123 = np.zeros((d, d, d))

    def add_sequence(self, seq: CountSequence, cfg: BetaMapConfig) -> "MomentAccumulator":
        """Accumulate every overlapping triple of ``seq``."""
        table, index = feature_table(seq, cfg)
        return self.add_indexed(table, index)

    def add_indexed(self, table: np.ndarray, index: np.ndarray) -> "MomentAccumulator":
        """Accumulate every window of a sequence given as feature-table rows.

        ``table`` has one feature row per distinct key, shape (U, D), each row
        summing to 1, and ``index[t, j]`` is the row of cell j at position t,
        so each position maps to the concatenation of its cells' rows. The
        triple is ``window_sum`` with identity factors.
        """
        length, cells = index.shape
        if length < 3:
            raise DataError(f"insufficient length: need at least 3 positions, got {length}")
        D = table.shape[1]
        if D * cells != self.feature_dim:
            raise ParameterError(
                f"sequence maps to dimension {D * cells}, accumulator expects {self.feature_dim}"
            )
        eye = np.eye(self.feature_dim)
        self._t123 += window_sum(table, index, eye, eye, eye)
        self.count += length - 2
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """A new accumulator equal to this one plus ``other`` (shard reduction)."""
        if other.feature_dim != self.feature_dim or other.num_blocks != self.num_blocks:
            raise ParameterError("cannot merge accumulators with different layouts")
        out = MomentAccumulator(self.feature_dim, self.num_blocks)
        out.count = self.count + other.count
        out._t123 = self._t123 + other._t123
        return out

    def finalize(self) -> MomentSet:
        """Normalized moment means over everything accumulated so far.

        A pair moment sums the triple over the first cell's block of the
        remaining axis, whose feature rows sum to 1 in every window.
        """
        if self.count < 1:
            raise DataError("cannot finalize an empty accumulator")
        t123 = self._t123 / float(self.count)
        t123.setflags(write=False)  # handed over, not copied
        cell = slice(0, self.feature_dim // self.num_blocks)
        moments = MomentSet(
            p12=t123[:, :, cell].sum(axis=2),
            p13=t123[:, cell, :].sum(axis=1),
            p23=t123[cell].sum(axis=0),
            t123=t123,
            count=self.count,
            num_blocks=self.num_blocks,
        )
        return moments.validate()
