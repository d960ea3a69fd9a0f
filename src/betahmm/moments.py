"""Co-occurrence moments of consecutive feature triples.

A sequence arrives as a feature table F, one row per distinct (coverage,
count) key, and each position's row of every cell (``features.feature_table``);
position t's feature vector f_t is its cells' rows side by side. Every
overlapping window (t, t+1, t+2) contributes its three vectors.

Every pass is one loop over the windows, ``_free_sums``: it sums one free
position's feature vector, weighted by values gathered from the window's
other positions, as a bincount of the free position's keys times the table.
The windows go in steps of ``_STEP`` whose keys are converted to intp once,
since ``np.take`` and ``np.bincount`` would copy a narrow index on every call.
So no pass forms an array as long as the sequence, or larger than a step or
a few U x D for U distinct keys and feature dimension D, and none loops over
positions or keys. Each pass is the weights it hands to that loop:

- ``pair_sums`` gives the three D x D pair sums, weighted by every feature
  column one and two positions later.
- ``window_sum`` gives the sum of (x.T f_t) (x) (y.T f_{t+1}) (x) (z.T f_{t+2})
  for any three factor matrices, weighted by each column pair of x and y.
  The spectral fit calls it with whitened factors of a few columns, so it
  never forms the D x D x D triple.
- ``_window_fibres`` gives, for each column of three factors, the three sums
  that leave one position's feature vector free: the spectral fit's readout
  of its feature means.

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
from .model import _STEP, CountSequence, _check_integer

__all__ = ["MomentSet", "MomentAccumulator", "MAX_FEATURE_DIM", "pair_sums", "window_sum"]

MAX_FEATURE_DIM = 256

# a pair moment of k cells sums to k**2 and the triple to k**3; validation
# allows this tolerance times max(1, total)
_SUM_TOL = 1e-9


def _free_sums(table: np.ndarray, index: np.ndarray, weights) -> np.ndarray:
    """Window sums of a free position's feature vector, one row per caller's weight.

    ``index[t, j]`` is the table row of cell j at position t. For the step of
    windows from ``lo``, ``weights(lo, keys)`` yields the same ``(free, w)``
    pairs in the same order at every step: ``keys[k]`` holds each window's
    intp keys at its position k, one column per cell, and ``w`` one value per
    window. Each pair is bincounted and mapped through the table before the
    next is drawn, so ``w`` may be reused scratch. Row i, of length cells * D,
    sums f_{t+free} * w_t of pair i over every window.
    """
    windows, cells = index.shape[0] - 2, index.shape[1]
    size = table.shape[0]
    # one intp block serves every step, with contiguous columns
    block = np.empty((min(windows, _STEP) + 2, cells), dtype=np.intp, order="F")
    total = 0.0
    for lo in range(0, windows, _STEP):
        step = block[: min(windows - lo, _STEP) + 2]
        step[...] = index[lo : lo + len(step)]
        keys = [step[k : k + len(step) - 2] for k in range(3)]
        total = total + np.array([
            np.concatenate([
                table.T @ np.bincount(keys[free][:, c], w, minlength=size) for c in range(cells)
            ])
            for free, w in weights(lo, keys)
        ])
    return total


def pair_sums(table: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window sums of f_t (x) f_{t+1}, f_t (x) f_{t+2} and f_{t+1} (x) f_{t+2}.

    ``index[t, j]`` is the table row of cell j at position t; the n - 2
    windows of n positions are summed. Column (b, j) of the sum at lag k
    leaves position 0 free, weighted by column j of cell b's rows k positions
    later. The first and third sums share the lag-1 sum over the inner
    windows, from window 1, and add one end pair each.
    """
    length, cells = index.shape
    D = table.shape[1]
    columns = np.ascontiguousarray(table.T)
    scratch = np.empty(min(length - 2, _STEP))

    def weights(lo, keys):
        w = scratch[: len(keys[0])]
        for lag in (1, 2):
            for b in range(cells):
                for column in columns:
                    np.take(column, keys[lag][:, b], out=w, mode="clip")
                    if lag == 1 and lo == 0:  # the inner windows start at window 1
                        w[0] = 0.0
                    yield 0, w

    sums = _free_sums(table, index, weights).reshape(2, cells * D, cells * D)
    inner, lag2 = sums.transpose(0, 2, 1)

    def outer(s: int, t: int) -> np.ndarray:
        return np.outer(table[index[s]].ravel(), table[index[t]].ravel())

    return inner + outer(0, 1), lag2, inner + outer(length - 2, length - 1)


def _project(table: np.ndarray, factor: np.ndarray, cells: int) -> np.ndarray:
    """Each cell's table rows projected on a factor, shape (cells, columns, U)."""
    D = table.shape[1]
    if factor.shape[0] != D * cells:
        raise ParameterError(f"factor has {factor.shape[0]} rows, features have {D * cells}")
    return np.stack([(table @ factor[j * D : (j + 1) * D]).T for j in range(cells)])


def _gather(proj: np.ndarray, keys: np.ndarray, dest: np.ndarray, part: np.ndarray) -> np.ndarray:
    """One column of projections, summed over cells, at each window: ``proj`` is (cells, U)."""
    np.take(proj[0], keys[:, 0], out=dest, mode="clip")
    for j in range(1, len(proj)):
        dest += np.take(proj[j], keys[:, j], out=part, mode="clip")
    return dest


def window_sum(
    table: np.ndarray, index: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Sum over windows of (x.T f_t) (x) (y.T f_{t+1}) (x) (z.T f_{t+2}).

    ``x``, ``y`` and ``z`` have one row per feature coordinate; the result has
    one axis per factor, of its column count. ``x`` and ``y`` are folded into
    every cell's table rows, and position t+2 is left free, weighted by the
    product of their gathered projections, once per column pair; ``z`` then
    contracts each free sum.
    """
    proj = [_project(table, f, index.shape[1]) for f in (x, y, z)]
    scratch = np.empty((3, min(index.shape[0] - 2, _STEP)))

    def weights(lo, keys):
        first, w, part = scratch[:, : len(keys[0])]
        for i in range(x.shape[1]):
            _gather(proj[0][:, i], keys[0], first, part)
            for j in range(y.shape[1]):
                yield 2, np.multiply(first, _gather(proj[1][:, j], keys[1], w, part), out=w)

    return (_free_sums(table, index, weights) @ z).reshape(x.shape[1], y.shape[1], -1)


def _window_fibres(
    table: np.ndarray, index: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window sums with one position left free, per column l of ``x``, ``y`` and ``z``.

    Column l of the three results, each shaped like ``x``, sums
    f_t (y_l.T f_{t+1}) (z_l.T f_{t+2}), (x_l.T f_t) f_{t+1} (z_l.T f_{t+2})
    and (x_l.T f_t) (y_l.T f_{t+1}) f_{t+2}: ``window_sum`` of the columns
    with an identity at the free position. The three gathered projections of
    column l serve all three sums, each weighted by the product of the other
    two.
    """
    proj = [_project(table, f, index.shape[1]) for f in (x, y, z)]
    scratch = np.empty((4, min(index.shape[0] - 2, _STEP)))

    def weights(lo, keys):
        *gathered, w = scratch[:, : len(keys[0])]
        for col in range(x.shape[1]):
            for k in range(3):
                _gather(proj[k][:, col], keys[k], gathered[k], w)
            for free in range(3):
                a, b = (k for k in range(3) if k != free)
                yield free, np.multiply(gathered[a], gathered[b], out=w)

    sums = _free_sums(table, index, weights).reshape(x.shape[1], 3, -1)
    return tuple(sums[:, free].T for free in range(3))


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
        _check_integer("num_blocks", self.num_blocks, 0)
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
        for name in ("p12", "p13", "p23", "t123"):
            arr = getattr(self, name)
            order = 3 if name == "t123" else 2
            if arr.shape != (d,) * order:
                raise ParameterError(f"{name} has shape {arr.shape}, expected {(d,) * order}")
            if float(arr.min()) < -1e-12:
                raise ParameterError(f"{name} has a negative entry ({arr.min()})")
            total = float(arr.sum())
            if abs(total - k**order) > _SUM_TOL * max(1.0, k**order):
                raise ParameterError(f"{name} entries sum to {total}, expected {k**order}")
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
        _check_integer("feature_dim", feature_dim, 1)
        if feature_dim > MAX_FEATURE_DIM:
            raise ParameterError(
                f"feature_dim {feature_dim} exceeds the dense-storage cap {MAX_FEATURE_DIM}"
            )
        _check_integer("num_blocks", num_blocks, 0)
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
