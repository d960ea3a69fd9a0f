"""Co-occurrence moments of consecutive feature triples.

For a feature-mapped sequence, every overlapping window (t, t+1, t+2)
contributes the pairwise outer products of its three feature vectors and one
order-3 outer product. The accumulator keeps the plain running sum of the
order-3 products, from which the pairwise sums follow; accumulators built on
disjoint shards merge by adding their sums.

The pass works from distinct (coverage, count) keys, not from positions. A
sequence arrives as a feature table F with one row per distinct key, and each
position's row index (``features.feature_table``). Only the triple sums are
kept: each cell's feature row sums to 1, so the pair moments are marginals of
the triple. The windows are counted per distinct (middle, first, last) key
triple, and the triples of one middle key v form a group:
``G_v = (counts * F[first]).T @ F[last]`` sums the outer products of the first
and last feature vectors over the windows whose middle key is v, and the
tensor is ``sum_v F[v] (x) G_v``. Groups are cut into pieces and padded to
power-of-two sizes, so the pieces of one size go through one batched
``np.matmul``, in chunks whose working arrays stay within a fixed number of
elements (one piece of one triple at least). Work is O(n + nt d^2 + U d^3)
for n windows, nt distinct key triples and U distinct keys. Memory is O(n)
beyond that bound and the d^3 sums: no U x d^2 or U x U array forms, and no
loop runs over positions or keys.

Each chunk's arrays live in one scratch arena per pass (one ``add_indexed``
call, all of its cells**3 blocks): the gathered first and last rows, the
batched products, the middle rows and the contraction are views of it,
written with ``out=``. The arena fits the largest chunk the pass plans, so a
short pass maps less than the budget. With new arrays for every chunk, the
two half passes of a two-cell fit (L = 90,000, d = 12) took 24-26k minor page
faults, about 100 MB of freshly zeroed pages and a third of their time; with
the arena they take about 1.3k.

Dense storage is used for the moments; the feature dimension is capped so the
order-3 array stays manageable.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .features import BetaMapConfig, feature_table
from .model import CountSequence

__all__ = ["MomentSet", "MomentAccumulator", "MAX_FEATURE_DIM"]

MAX_FEATURE_DIM = 256

# float64-sized elements of one chunk's gathered rows and products in the
# triple pass; bounds the chunk whatever the number of distinct keys, and so
# the pass's arena, which adds the chunk's middle rows and the d**3
# contraction. 2**18 (2 MB) rather than 2**20: the pass's tracemalloc peak fell
# from 21.6 to 12.9 MB on the genome-ftd sequence and from 16.5 to 6.8 MB on
# two-cell, and its CPU time from 90 to 85 ms and from 149 to 107 ms (smaller
# chunks stay in cache)
_BATCH_ELEMENTS = 1 << 18

# a pair moment of k cells sums to k**2 and the triple to k**3; validation
# allows this tolerance times max(1, total)
_SUM_TOL = 1e-9


def _triple_counts(middle: np.ndarray, first: np.ndarray, last: np.ndarray, size: int):
    """Distinct (middle, first, last) key triples in sorted order, and their window counts.

    Keys lie in [0, size), in any integer dtype. One int64 code per window
    serves while size**3 fits in int64; beyond that the triples are sorted
    as rows.
    """
    if size < 1 << 21:
        code = (middle.astype(np.int64, copy=False) * size + first) * size + last
        codes, counts = np.unique(code, return_counts=True)
        return codes // (size * size), codes // size % size, codes % size, counts
    triples, counts = np.unique(
        np.stack([middle, first, last], axis=1), axis=0, return_counts=True
    )
    return triples[:, 0], triples[:, 1], triples[:, 2], counts


class _Arena:
    """Float64 scratch shared by every chunk of one pass.

    It is as large as the largest chunk planned so far, and is replaced only
    when a block plans a larger one, so a pass maps new pages only to grow. It is an
    anonymous private mapping of its own (POSIX), not a numpy allocation:
    freeing a 2 MB malloc block raises glibc's dynamic mmap threshold, and
    later temporaries then stay on a heap that is not trimmed. As a numpy
    array the arena raised the peak RSS of a two-cell ``betahmm fit`` from
    46.7 to 47.0 MB and of the sweep's ``betahmm benchmark`` from 43.9 to
    45.7 MB; as a mapping they read 45.0 and 43.9 MB. The price is fresh
    pages in every pass, about 0.8 ms per 2 MB. tracemalloc does not see the
    mapping.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        """The first ``size`` elements of the buffer, enlarged if it is shorter."""
        if self._buf.size < size:
            self._buf = np.frombuffer(
                mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE), dtype=np.float64
            )
        return self._buf[:size]


def _carve(buf: np.ndarray, *shapes: tuple) -> list:
    """Consecutive views of ``buf``, one of each shape, from its start."""
    views, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(buf[at : at + n].reshape(shape))
        at += n
    return views


def _triple_block(
    table: np.ndarray, middle: np.ndarray, first: np.ndarray, last: np.ndarray, arena: _Arena
) -> np.ndarray:
    """Sum over windows of F[middle] (x) F[first] (x) F[last], in that axis order.

    Each group of key triples with one middle key v is cut into pieces of at
    most ``cap`` triples; a piece gives ``(counts * F[first]).T @ F[last]``,
    and contracting it with ``F[v]`` adds its part of the block. Pieces are
    padded with zero-weight rows to the next power of two, so the pieces of
    one padded size share one batched product per chunk. Every chunk's
    gathered rows, products and contraction are views of ``arena``.
    """
    D = table.shape[1]
    mid, fst, lst, counts = _triple_counts(middle, first, last, table.shape[0])
    # the largest power of two whose piece fits the budget, 1 at least
    room = (_BATCH_ELEMENTS - D * D) // (2 * D)
    cap = 1 << (room.bit_length() - 1) if room >= 1 else 1
    group_start = np.flatnonzero(np.r_[True, mid[1:] != mid[:-1]])
    group_size = np.diff(np.r_[group_start, mid.size])
    pieces = -(-group_size // cap)
    # piece j of a group starts j * cap triples into it
    offset = cap * (np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    start = np.repeat(group_start, pieces) + offset
    size = np.minimum(cap, np.repeat(group_size, pieces) - offset)
    # a piece pads to 2**exponent rows
    exponent = np.frexp(size - 1)[1]
    per_width = np.bincount(exponent)
    # (exponent, pieces per chunk, pieces in its largest chunk)
    plan = []
    for e in np.flatnonzero(per_width).tolist():
        step = max(1, _BATCH_ELEMENTS // ((1 << e) * 2 * D + D * D))
        plan.append((e, step, min(step, int(per_width[e]))))
    # a chunk holds each piece's first and last rows, product and middle row,
    # after the contraction; the arena fits the block's largest chunk
    buf = arena.take(D**3 + max(p * ((1 << e) * 2 * D + D * D + D) for e, _, p in plan))
    out = np.zeros((D, D * D))
    for e, step, _ in plan:
        width = 1 << e
        chosen = np.flatnonzero(exponent == e)
        slot = np.arange(width)
        for lo in range(0, chosen.size, step):
            part = chosen[lo : lo + step]
            p = part.size
            contraction, firsts, lasts, products, middles = _carve(
                buf, (D, D * D), (p, width, D), (p, width, D), (p, D, D), (p, D)
            )
            valid = slot < size[part, None]
            rows = np.where(valid, start[part, None] + slot, start[part, None])
            # mode="clip": with the default "raise", take buffers out= and so
            # allocates a new array every chunk
            np.take(table, fst[rows], axis=0, out=firsts, mode="clip")
            firsts *= np.where(valid, counts[rows], 0.0)[..., None]
            np.take(table, lst[rows], axis=0, out=lasts, mode="clip")
            np.matmul(firsts.transpose(0, 2, 1), lasts, out=products)
            np.take(table, mid[start[part]], axis=0, out=middles, mode="clip")
            np.matmul(middles.T, products.reshape(p, D * D), out=contraction)
            out += contraction
    return out.reshape(D, D, D)


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
        self._t123 = np.zeros((d, d, d))

    def add_sequence(self, seq: CountSequence, cfg: BetaMapConfig) -> "MomentAccumulator":
        """Accumulate every overlapping triple of ``seq``."""
        table, index = feature_table(seq, cfg)
        return self.add_indexed(table, index)

    def add_indexed(self, table: np.ndarray, index: np.ndarray) -> "MomentAccumulator":
        """Accumulate every window of a sequence given as feature-table rows.

        ``table`` has one feature row per distinct key, shape (U, D), each row
        summing to 1, and ``index[t, j]`` is the row of cell j at position t,
        so each position maps to the concatenation of its cells' rows. Loops
        run over cells and over chunks of key-triple groups only, and every
        chunk of the call writes into one scratch arena.
        """
        length, cells = index.shape
        if length < 3:
            raise DataError(f"insufficient length: need at least 3 positions, got {length}")
        D = table.shape[1]
        if D * cells != self.feature_dim:
            raise ParameterError(
                f"sequence maps to dimension {D * cells}, accumulator expects {self.feature_dim}"
            )
        first, middle, last = index[:-2], index[1:-1], index[2:]
        block = [slice(j * D, (j + 1) * D) for j in range(cells)]
        arena = _Arena()
        for a in range(cells):
            for b in range(cells):
                for c in range(cells):
                    self._t123[block[a], block[b], block[c]] += _triple_block(
                        table, middle[:, b], first[:, a], last[:, c], arena
                    ).transpose(1, 0, 2)
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
