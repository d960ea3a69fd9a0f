"""End-to-end feature tensor decomposition (FTD) fits.

One call maps a count sequence through histogram features, accumulates
consecutive-triple moments, decomposes them spectrally, and converts the
per-state feature means into binomial HMM parameters. A warm-start variant
hands the result to a few EM refinement rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .em import EmConfig, EmTrace, em_fit
from .errors import DataError, ParameterError
from .features import BetaMapConfig, feature_table, prior_weights
from .model import CountSequence, HmmParams
from .moments import MomentAccumulator, MomentSet
from .recovery import chain_from_joint, estimate_joint_lsq, recover_meth_probs
from .spectral import (
    _pinv,
    joint_diagonalization,
    pair_spectrum,
    recover_feature_means,
    symmetrize_moments,
    whiten,
)

__all__ = ["FtdConfig", "RecoveredModel", "ftd_fit", "ftd_fit_moments", "ftd_then_em"]


@dataclass(frozen=True)
class FtdConfig:
    """Controls for the spectral fit.

    ``granularity`` is the number of histogram bins per cell. Pair directions
    whose curvature falls below the sampling noise are not inverted: when
    fewer than ``num_states`` directions survive, the decomposition runs at the
    reduced rank and the missing states are filled with copies of the heaviest
    recovered components (a merged-state estimate). The noise of each
    direction comes from the disagreement of the two half-stream moment sets.
    Without them it is ``noise_level`` times the norm of the third-view
    operator, where ``noise_level`` is ``moment_ridge`` or, if that is None, a
    closed-form stand-in; only such fits report ``noise_level``, and with
    halves ``moment_ridge`` has no effect.
    """

    granularity: int = 30
    moment_ridge: float | None = None

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise ParameterError(f"granularity must be >= 1, got {self.granularity}")
        if self.moment_ridge is not None and self.moment_ridge < 0.0:
            raise ParameterError(f"moment_ridge must be >= 0, got {self.moment_ridge}")


@dataclass(eq=False)
class RecoveredModel:
    """FTD output: HMM parameters plus recovery diagnostics.

    ``per_cell_probs`` always has shape (num_cells, num_states);
    ``params.meth_probs`` is its single row for single-cell data.
    ``diagnostics`` records clamping masses, the joint fit's objective,
    active-set steps and KKT residual, rank margins (each pair value over its
    floor), whitening spectrum, tensor residuals and pre-clamp probabilities;
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


def ftd_fit_moments(
    moments: MomentSet,
    num_states: int,
    prior_weights_per_cell,
    config: FtdConfig = FtdConfig(),
    split_halves: tuple[MomentSet, MomentSet] | None = None,
) -> RecoveredModel:
    """Spectral fit from already-finalized moments.

    ``symmetrize_moments`` recentres the triple moment and takes its symmetric
    part; the symmetric tensor is whitened, decomposed by
    ``joint_diagonalization``, and read back into per-state feature means
    through ``recover_feature_means``. ``diagnostics["tensor_asymmetry"]``
    measures the tensor before symmetrization.

    ``prior_weights_per_cell`` must carry one mean of 1 / (coverage + 2) per
    cell block of the moment set. The moment granularity is inferred from the
    feature dimension and block count. ``split_halves`` optionally carries the
    same moments accumulated over two disjoint halves of the stream; their
    disagreement calibrates the noise floor of each pair direction, which
    selects the rank.
    """
    start = time.perf_counter()
    dim = moments.dim
    if dim % moments.num_blocks != 0:
        raise ParameterError("moment dimension is not divisible by its block count")
    granularity = dim // moments.num_blocks
    _, s3, g, asymmetry = symmetrize_moments(moments, num_states)
    spectrum = pair_spectrum(s3, moments.p32)
    _, vals, vecs = spectrum
    top_vals = vals[:num_states]
    top_vecs = vecs[:, :num_states]
    if split_halves is not None:
        half_pairs = []
        for half in split_halves:
            s3h = half.p21 @ _pinv(half.p31, rank=num_states)
            half_pairs.append(s3h @ half.p32)
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
                * float(np.linalg.norm(moments.p13))
                / float(np.sqrt(dim * float(moments.count)))
            )
        pair_floor = np.full(num_states, float(np.linalg.norm(s3, ord=2)) * level)
        noise = {"noise_level": level}
    resolvable = top_vals > pair_floor
    # keep the leading run of resolvable directions
    rank = int(np.argmin(resolvable)) if not resolvable.all() else num_states
    rank = max(1, rank)
    whitening, h = whiten(g, spectrum, rank)
    result = joint_diagonalization(h)
    means_r = recover_feature_means(result, whitening, g, num_blocks=moments.num_blocks)
    spectral_done = time.perf_counter()
    # unresolvable states are estimated at the recovered merged positions,
    # heaviest components (smallest whitened eigenvalue) duplicated first
    dup_order = np.argsort(result.eigenvalues, kind="stable")
    extras = [int(dup_order[i % rank]) for i in range(num_states - rank)]
    mapping = np.concatenate([np.arange(rank), np.asarray(extras, dtype=np.int64)])
    means = means_r[:, mapping]
    probs, raw_probs = recover_meth_probs(means, prior_weights_per_cell, granularity)
    joint = estimate_joint_lsq(moments.p21, means_r)
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
        "triples": moments.count,
        **noise,
        "pair_floor": pair_floor.tolist(),
        "effective_rank": int(rank),
        "duplicated_components": extras,
        "tensor_asymmetry": asymmetry,
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
        prior_weights=np.atleast_1d(np.asarray(prior_weights_per_cell, dtype=np.float64)),
        feature_means=means,
        diagnostics=diagnostics,
    )


def ftd_fit(
    seq: CountSequence, num_states: int, config: FtdConfig = FtdConfig()
) -> RecoveredModel:
    """Full spectral fit of a count sequence.

    The (coverage, count) keys and their feature table are computed once for
    the whole sequence. Long enough sequences are accumulated as two
    half-stream shards whose summed moments cover every window once; the
    halves also provide the split-half noise estimate that selects the rank.
    """
    if len(seq) < 3:
        raise DataError(f"insufficient length: need at least 3 positions, got {len(seq)}")
    start = time.perf_counter()
    table, index = feature_table(seq, BetaMapConfig(granularity=config.granularity))
    dim = config.granularity * seq.num_cells
    halves = None
    if len(seq) >= 16:
        half = len(seq) // 2
        acc_a = MomentAccumulator(feature_dim=dim, num_blocks=seq.num_cells)
        acc_a.add_indexed(table, index[:half])
        # start two positions early so the windows spanning the cut are kept:
        # the merged accumulator then covers every overlapping triple exactly once
        acc_b = MomentAccumulator(feature_dim=dim, num_blocks=seq.num_cells)
        acc_b.add_indexed(table, index[half - 2 :])
        moments = acc_a.merge(acc_b).finalize()
        halves = (acc_a.finalize(), acc_b.finalize())
    else:
        acc = MomentAccumulator(feature_dim=dim, num_blocks=seq.num_cells)
        moments = acc.add_indexed(table, index).finalize()
    moments_s = time.perf_counter() - start
    model = ftd_fit_moments(
        moments, num_states, prior_weights(seq), config, split_halves=halves
    )
    model.diagnostics["distinct_keys"] = [
        int(np.count_nonzero(np.bincount(index[:, j], minlength=len(table))))
        for j in range(seq.num_cells)
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
    likelihood.
    """
    if rounds < 0:
        raise ParameterError(f"rounds must be >= 0, got {rounds}")
    model = ftd_fit(seq, num_states, config)
    if rounds == 0:
        return model, EmTrace(log_likelihoods=[], params=model.params, iterations=0)
    meth = np.clip(model.params.meth_probs, _PROB_MARGIN, 1.0 - _PROB_MARGIN)
    warm = HmmParams(
        initial_dist=model.params.initial_dist,
        transition=model.params.transition,
        meth_probs=meth,
    )
    em_cfg = EmConfig(max_iters=rounds, rel_ll_tolerance=0.0, init=warm)
    return model, em_fit(seq, num_states, em_cfg)
