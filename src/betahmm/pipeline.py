"""End-to-end feature tensor decomposition (FTD) fits.

One call maps a count sequence through histogram features, sums its pair
moments, decomposes the triple moment spectrally, and converts the per-state
feature means into binomial HMM parameters. A warm-start variant hands the
result to a few EM refinement rounds.

The rank decision and the whitening map W come from the pair moments alone.
The triple enters only through contractions with D x r factors: the m x m x m
whitened tensor and a D x m readout of the feature means. ``ftd_fit`` takes
them straight from the keyed sequence (``moments.window_sum`` and
``moments._window_fibres``), so no D x D x D array forms and the triple costs
O(n m**2) for n windows and m states; ``ftd_fit_moments`` takes them from a
finalized moment set's dense triple. Every step after the contractions is
shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, NumericalError, ParameterError
from .features import BetaMapConfig, FtdConfig, feature_table, prior_weights
from .model import CountSequence, HmmParams
from .moments import MomentSet, _window_fibres, pair_sums, window_sum
from .recovery import chain_from_joint, estimate_joint_lsq, recover_meth_probs
from .spectral import (
    _pinv,
    _symmetric_part,
    joint_diagonalization,
    pair_spectrum,
    recover_feature_means,
    symmetrize_moments,
    whiten,
)

if TYPE_CHECKING:
    from .em import EmTrace

__all__ = ["FtdConfig", "RecoveredModel", "ftd_fit", "ftd_fit_moments", "ftd_then_em"]


@dataclass(eq=False)
class RecoveredModel:
    """FTD output: HMM parameters plus recovery diagnostics.

    ``per_cell_probs`` always has shape (num_cells, num_states);
    ``params.meth_probs`` is its single row for single-cell data.
    ``diagnostics`` records the window count (``triples``), clamping masses,
    the joint fit's objective, active-set steps and KKT residual, rank
    margins (each pair value over its floor), whitening spectrum, the
    whitened tensor's asymmetry (its relative distance from its symmetric
    part, which it decomposes), tensor residuals and pre-clamp probabilities;
    ``diagnostics["timings"]`` holds the seconds of each stage, and
    ``ftd_fit`` adds ``diagnostics["distinct_keys"]``, the distinct
    (coverage, count) pairs of each cell.
    """

    params: HmmParams
    per_cell_probs: np.ndarray
    prior_weights: np.ndarray
    feature_means: np.ndarray
    diagnostics: dict


# fallback constant for the operator-norm sampling noise of a pair moment
# estimated from N triples: roughly const * ||P||_F / sqrt(dim * N); measured
# on benchmark-style chains the constant sits between 12 and 21, so this is
# only a coarse stand-in for the split-half estimate
_PAIR_NOISE_CONST = 16.0

# distance of EM's warm-start success probabilities from 0 and 1
_PROB_MARGIN = 1e-6


def _check_states(num_states: int) -> None:
    if num_states < 1:
        raise ParameterError(f"num_states must be >= 1, got {num_states}")


def _readout(fibres, s1: np.ndarray, s3: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``g(u_l, u_l, .)`` for every column u_l of ``u``, a D x m array.

    g is the symmetric part of ``raw(x, y, z) = T(s1.T x, y, s3.T z)`` for the
    triple mean T, so
    ``g(u, u, .) = (raw(u, u, .) + raw(u, ., u) + raw(., u, u)) / 3``, and
    each term is T with two axes contracted: ``fibres(x, y, z)`` gives
    T(., y_l, z_l), T(x_l, ., z_l) and T(x_l, y_l, .) for every column l.
    """
    free_t, free_mid, free_end = fibres(s1.T @ u, u, s3.T @ u)
    return (s1 @ free_t + free_mid + s3 @ free_end) / 3.0


def _fit(
    pairs, halves, contract, fibres, count, num_blocks, num_states, weights, config
) -> RecoveredModel:
    """The spectral fit from pair means and contractions of the triple mean.

    ``pairs`` holds the means (p12, p13, p23), ``halves`` the same for the two
    half streams or None, ``contract(x, y, z)`` is the triple mean contracted
    with x, y and z on its three axes, and ``fibres`` contracts it on two axes
    at a time (see :func:`_readout`).
    """
    start = time.perf_counter()
    p12, p13, p23 = pairs
    dim = p12.shape[0]
    granularity = dim // num_blocks
    s1, s3 = symmetrize_moments(p12, p13, p23, num_states)
    spectrum = pair_spectrum(s3, p23.T)
    _, vals, vecs = spectrum
    top_vals = vals[:num_states]
    top_vecs = vecs[:, :num_states]
    if halves is not None:
        half_pairs = []
        for h12, h13, h23 in halves:
            s3h = h12.T @ _pinv(h13.T, rank=num_states)
            half_pairs.append(s3h @ h23.T)
        delta = 0.5 * (half_pairs[0] - half_pairs[1])
        delta = 0.5 * (delta + delta.T)
        # per-direction noise: the split-half disagreement of each curvature,
        # so strong directions are not masked by noise that lives elsewhere in
        # the spectrum
        pair_floor = np.abs(np.einsum("ij,jk,ki->i", top_vecs.T, delta, top_vecs))
        noise = {}
    else:
        level = config.moment_ridge
        if level is None:
            level = (
                _PAIR_NOISE_CONST
                * float(np.linalg.norm(p13))
                / float(np.sqrt(dim * float(count)))
            )
        pair_floor = np.full(num_states, float(np.linalg.norm(s3, ord=2)) * level)
        noise = {"noise_level": level}
    resolvable = top_vals > pair_floor
    # keep the leading run of resolvable directions
    rank = int(np.argmin(resolvable)) if not resolvable.all() else num_states
    rank = max(1, rank)
    whitening = whiten(spectrum, rank)
    w = whitening.w
    raw = contract(s1.T @ w, w, s3.T @ w)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise NumericalError("whitened tensor is identically zero")
    h = _symmetric_part(raw)
    result = joint_diagonalization(h)
    readout = _readout(fibres, s1, s3, w @ result.eigenvectors)
    means_r = recover_feature_means(result, readout, num_blocks=num_blocks)
    spectral_done = time.perf_counter()
    # unresolvable states are estimated at the recovered merged positions,
    # heaviest components (smallest whitened eigenvalue) duplicated first
    dup_order = np.argsort(result.eigenvalues, kind="stable")
    extras = [int(dup_order[i % rank]) for i in range(num_states - rank)]
    mapping = np.concatenate([np.arange(rank), np.asarray(extras, dtype=np.int64)])
    means = means_r[:, mapping]
    probs, raw_probs = recover_meth_probs(means, weights, granularity)
    joint = estimate_joint_lsq(p12.T, means_r)
    # split each merged state's joint mass evenly among its copies; the
    # expanded matrix keeps non-negativity and total mass exactly
    multiplicity = np.bincount(mapping, minlength=rank)[mapping]
    pi, T = chain_from_joint(
        joint.matrix[np.ix_(mapping, mapping)] / np.outer(multiplicity, multiplicity)
    )
    params = HmmParams(initial_dist=pi, transition=T, meth_probs=probs)
    timings = {
        "spectral_s": spectral_done - start,
        "recovery_s": time.perf_counter() - spectral_done,
    }
    diagnostics = {
        "triples": count,
        **noise,
        "pair_floor": pair_floor.tolist(),
        "effective_rank": int(rank),
        "duplicated_components": extras,
        "tensor_asymmetry": float(np.linalg.norm(raw - h)) / norm,
        "pair_values": top_vals.tolist(),
        # None rather than inf at a zero floor: the model JSON must not hold Infinity
        "rank_margins": [
            val / floor if floor > 0.0 else None
            for val, floor in zip(top_vals.tolist(), pair_floor.tolist())
        ],
        "whitening_values": np.asarray(whitening.singular_values).tolist(),
        "tensor_residuals": list(result.residual_norms),
        "eigenvalues": np.asarray(result.eigenvalues).tolist(),
        "feature_clamp_mass": result.clamp_mass,
        "sign_flips": result.sign_flips,
        "probs_preclamp": raw_probs.tolist(),
        "lsq_objective": joint.objective,
        "lsq_iterations": joint.iterations,
        "lsq_kkt_residual": joint.kkt_residual,
        "timings": timings,
    }
    return RecoveredModel(
        params=params,
        per_cell_probs=probs,
        prior_weights=np.atleast_1d(np.asarray(weights, dtype=np.float64)),
        feature_means=means,
        diagnostics=diagnostics,
    )


def ftd_fit_moments(
    moments: MomentSet,
    num_states: int,
    prior_weights_per_cell,
    config: FtdConfig = FtdConfig(),
    split_halves: tuple[MomentSet, MomentSet] | None = None,
) -> RecoveredModel:
    """Spectral fit from already-finalized moments.

    ``symmetrize_moments`` turns the pair moments into the operators s1 and
    s3 that recenter the triple on the middle position, and ``whiten`` turns
    the recentred pair matrix into the whitening map W. The triple moment
    ``t123`` is contracted with s1.T W, W and s3.T W in one ``einsum``; the
    symmetric part of that m x m x m tensor is decomposed by
    ``joint_diagonalization`` and read back into per-state feature means
    through ``recover_feature_means``. ``diagnostics["tensor_asymmetry"]``
    measures the whitened tensor before symmetrization.

    ``prior_weights_per_cell`` must carry one mean of 1 / (coverage + 2) per
    cell block of the moment set. The moment granularity is inferred from the
    feature dimension and block count. ``split_halves`` optionally carries the
    same moments accumulated over two disjoint halves of the stream; their
    disagreement calibrates the noise floor of each pair direction, which
    selects the rank.
    """
    _check_states(num_states)
    halves = None
    if split_halves is not None:
        halves = [(half.p12, half.p13, half.p23) for half in split_halves]

    def contract(x, y, z):
        return np.einsum("abc,ai,bj,ck->ijk", moments.t123, x, y, z, optimize=True)

    def fibres(x, y, z):
        return (
            np.einsum("abc,bl,cl->al", moments.t123, y, z, optimize=True),
            np.einsum("abc,al,cl->bl", moments.t123, x, z, optimize=True),
            np.einsum("abc,al,bl->cl", moments.t123, x, y, optimize=True),
        )

    return _fit(
        (moments.p12, moments.p13, moments.p23), halves, contract, fibres, moments.count,
        moments.num_blocks, num_states, prior_weights_per_cell, config,
    )


def _distinct(keys: np.ndarray, size: int) -> int:
    """How many of ``size`` keys occur; marking them copies no narrow key to intp."""
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    return int(np.count_nonzero(seen))


def ftd_fit(
    seq: CountSequence, num_states: int, config: FtdConfig = FtdConfig()
) -> RecoveredModel:
    """Full spectral fit of a count sequence.

    The (coverage, count) keys and their feature table are computed once for
    the whole sequence. Long enough sequences have their pair moments summed
    as two half-stream shards that together cover every window once; the
    halves also provide the split-half noise estimate that selects the rank.
    The triple moment is contracted straight from the keys
    (``moments.window_sum``), as ``ftd_fit_moments`` contracts a dense one.
    """
    _check_states(num_states)
    if len(seq) < 3:
        raise DataError(f"insufficient length: need at least 3 positions, got {len(seq)}")
    start = time.perf_counter()
    table, index = feature_table(seq, BetaMapConfig(granularity=config.granularity))
    count = len(seq) - 2
    if len(seq) < 16:
        pairs, halves = [s / count for s in pair_sums(table, index)], None
    else:
        half = len(seq) // 2
        # the second half starts two positions early, so the windows spanning
        # the cut are kept and the halves cover every window exactly once
        sums = pair_sums(table, index[:half]), pair_sums(table, index[half - 2 :])
        pairs = [(a + b) / count for a, b in zip(*sums)]
        halves = [[s / n for s in part] for part, n in zip(sums, (half - 2, len(seq) - half))]
    moments_s = time.perf_counter() - start

    def contract(x, y, z):
        return window_sum(table, index, x, y, z) / count

    def fibres(x, y, z):
        return tuple(s / count for s in _window_fibres(table, index, x, y, z))

    model = _fit(
        pairs, halves, contract, fibres, count, seq.num_cells, num_states, prior_weights(seq),
        config,
    )
    model.diagnostics["distinct_keys"] = [
        _distinct(index[:, j], len(table)) for j in range(seq.num_cells)
    ]
    model.diagnostics["timings"] = {"moments_s": moments_s, **model.diagnostics["timings"]}
    return model


def ftd_then_em(
    seq: CountSequence,
    num_states: int,
    config: FtdConfig = FtdConfig(),
    rounds: int = 3,
) -> tuple[RecoveredModel, EmTrace]:
    """Spectral fit followed by ``rounds`` EM refinement iterations.

    Returns the spectral fit, diagnostics included, and the EM trace. With
    ``rounds=0`` the EM stage is skipped and the trace simply wraps the
    spectral parameters. Warm-start probabilities are pulled off the [0, 1]
    boundary by ``_PROB_MARGIN`` so clamped estimates cannot zero out the
    likelihood, and ``_PROB_MARGIN`` of a uniform distribution is mixed into
    ``pi`` and every column of ``T``: EM's multiplicative update cannot revive
    a zero, and a reducible T lets the messages underflow to disjoint supports.
    """
    from .em import EmConfig, EmTrace, em_fit

    if rounds < 0:
        raise ParameterError(f"rounds must be >= 0, got {rounds}")
    model = ftd_fit(seq, num_states, config)
    if rounds == 0:
        return model, EmTrace(log_likelihoods=[], params=model.params, iterations=0)
    meth = np.clip(model.params.meth_probs, _PROB_MARGIN, 1.0 - _PROB_MARGIN)
    pi = (1.0 - _PROB_MARGIN) * model.params.initial_dist + _PROB_MARGIN / num_states
    T = (1.0 - _PROB_MARGIN) * model.params.transition + _PROB_MARGIN / num_states
    warm = HmmParams(
        initial_dist=pi / pi.sum(),
        transition=T / T.sum(axis=0),
        meth_probs=meth,
    )
    em_cfg = EmConfig(max_iters=rounds, rel_ll_tolerance=0.0, init=warm)
    return model, em_fit(seq, num_states, em_cfg)
