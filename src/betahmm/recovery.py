"""From per-state feature means back to interpretable HMM parameters.

Success probabilities come from an affine correction of the bin-weighted mean
of each state's histogram. The joint distribution of two consecutive hidden
states is estimated either by a constrained least-squares fit (the stabilized
path, always feasible) or by direct pseudoinversion of the pairwise moment
(cheap but clamp-prone); initial distribution and transition matrix follow
from that joint by marginalization and column normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .spectral import _effective_rank, _pinv

__all__ = [
    "StateJoint",
    "recover_meth_probs",
    "project_to_simplex",
    "estimate_joint_lsq",
    "chain_from_joint",
    "chain_via_pinv",
    "differential_states",
]

PI_FLOOR = 1e-8

# how far each cell block of a feature-mean column may sum from 1
_BLOCK_ATOL = 1e-6


@dataclass(eq=False)
class StateJoint:
    """Estimated joint distribution of (next state, current state).

    ``matrix[i, j]`` approximates P(h_{t+1} = i, h_t = j); entries are
    non-negative and sum to 1 by construction of the constrained fit.
    """

    matrix: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _check_block_structure(feature_means: np.ndarray, granularity: int) -> int:
    if feature_means.ndim != 2:
        raise ParameterError(f"feature means must be 2-D, got shape {feature_means.shape}")
    dim = feature_means.shape[0]
    if granularity < 1 or dim % granularity != 0:
        raise ParameterError(
            f"granularity {granularity} does not divide feature dimension {dim}"
        )
    return dim // granularity


def recover_meth_probs(
    feature_means: np.ndarray,
    prior_weights,
    granularity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell, per-state success probabilities from histogram feature means.

    For each cell block of each state column, take the right-bin-edge weighted
    mean sum_i (i / D) * column_i, subtract the cell's empirical prior weight
    a, and rescale by 1 / (1 - 2a). Returns ``(probs, raw)`` where ``probs``
    is clamped into [0, 1] and ``raw`` keeps the pre-clamp values as a
    diagnostic. Shapes are (num_cells, num_states).
    """
    num_blocks = _check_block_structure(feature_means, granularity)
    a = np.atleast_1d(np.asarray(prior_weights, dtype=np.float64))
    if a.shape != (num_blocks,):
        raise ParameterError(
            f"expected {num_blocks} prior weights, got shape {a.shape}"
        )
    if np.any(a <= 0.0) or np.any(a >= 0.5):
        bad = int(np.argmax((a <= 0.0) | (a >= 0.5)))
        raise ParameterError(
            f"prior weight for cell {bad} is {a[bad]}; must lie in (0, 0.5) "
            "(a weight of 0.5 means zero coverage everywhere)"
        )
    D = granularity
    m = feature_means.shape[1]
    blocks = feature_means.reshape(num_blocks, D, m)
    sums = blocks.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _BLOCK_ATOL):
        b, col = np.argwhere(np.abs(sums - 1.0) > _BLOCK_ATOL)[0]
        raise ParameterError(
            f"cell block {b} of state column {col} sums to {sums[b, col]}, "
            f"expected 1 within {_BLOCK_ATOL}"
        )
    weights = np.arange(1, D + 1) / D
    weighted = np.einsum("d,bdm->bm", weights, blocks)
    raw = (weighted - a[:, None]) / (1.0 - 2.0 * a[:, None])
    probs = np.clip(raw, 0.0, 1.0)
    return probs, raw


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto {x >= 0, sum(x) = 1}."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    shifted = (css - 1.0) / idx
    rho = np.nonzero(u - shifted > 0)[0][-1]
    return np.maximum(v - shifted[rho], 0.0)


def estimate_joint_lsq(
    p21: np.ndarray,
    feature_means: np.ndarray,
    max_iters: int = 5000,
    rel_tol: float = 1e-9,
) -> StateJoint:
    """Stabilized joint-state estimate by projected gradient descent.

    Minimizes ``norm(p21 - C @ H @ C.T)**2`` over {H >= 0, sum(H) = 1} with C
    the feature means, step 1 / sigma_max(C.T C)^2 and halving safeguards so
    the objective never increases. Stops when the relative decrease falls
    below ``rel_tol`` or after ``max_iters`` iterations.
    """
    C = np.asarray(feature_means, dtype=np.float64)
    if C.ndim != 2:
        raise ParameterError(f"feature means must be 2-D, got shape {C.shape}")
    m = C.shape[1]
    if p21.shape != (C.shape[0], C.shape[0]):
        raise ParameterError(
            f"pair moment shape {p21.shape} does not match feature dimension {C.shape[0]}"
        )
    if _effective_rank(C) < m:
        raise NumericalError(
            "feature mean matrix is rank deficient; the joint fit is not identifiable"
        )
    gram = C.T @ C
    lead = float(np.linalg.norm(gram, 2))
    base_step = 1.0 / (lead * lead)
    cross = C.T @ p21 @ C
    const = float(np.sum(p21 * p21))

    def objective(h: np.ndarray) -> float:
        return const - 2.0 * float(np.sum(h * cross)) + float(np.sum((gram @ h @ gram) * h))

    h = np.full((m, m), 1.0 / (m * m))
    obj = objective(h)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = 2.0 * (gram @ h @ gram - cross)
        step = base_step
        accepted = False
        for _ in range(60):
            trial = project_to_simplex((h - step * grad).ravel()).reshape(m, m)
            move = float(np.sum((trial - h) ** 2))
            trial_obj = objective(trial)
            # sufficient decrease; the descent lemma guarantees this once the
            # step drops below the inverse gradient Lipschitz constant
            if trial_obj <= obj - 0.5 * move / step:
                accepted = True
                break
            step *= 0.5
        if not accepted or move <= 1e-30:
            converged = True
            break
        decrease = obj - trial_obj
        h, obj = trial, trial_obj
        if decrease <= rel_tol * max(abs(obj), 1e-300):
            converged = True
            break
    return StateJoint(matrix=h, objective=obj, iterations=iterations, converged=converged)


def chain_from_joint(joint) -> tuple[np.ndarray, np.ndarray]:
    """Initial distribution and transition matrix from a consecutive-state joint.

    The initial distribution is the column-sum marginal (the earlier of the
    two positions); entries below ``PI_FLOOR`` are lifted to it before
    renormalizing, and transition columns are renormalized to sum exactly 1.
    """
    h = joint.matrix if isinstance(joint, StateJoint) else np.asarray(joint, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ParameterError(f"joint must be square, got shape {h.shape}")
    if float(h.min()) < -1e-12:
        raise ParameterError(f"joint has a negative entry ({h.min()})")
    total = float(h.sum())
    if abs(total - 1.0) > 1e-6:
        raise ParameterError(f"joint entries sum to {total}, expected 1")
    m = h.shape[0]
    col = np.maximum(h.sum(axis=0), 0.0)
    floored = np.maximum(col, PI_FLOOR)
    pi = floored / floored.sum()
    T = h / floored[None, :]
    col_sums = T.sum(axis=0)
    for j in range(m):
        if col_sums[j] > 0.0:
            T[:, j] /= col_sums[j]
        else:
            T[:, j] = 1.0 / m
    return pi, T


def chain_via_pinv(
    p21: np.ndarray, feature_means: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Direct joint-state estimate through pseudoinverses of the feature means.

    Computes ``pinv(C) @ p21 @ pinv(C).T``, clamps negatives (the clamped mass
    is returned as the third element), renormalizes to a distribution, and
    marginalizes as in :func:`chain_from_joint`.
    """
    C = np.asarray(feature_means, dtype=np.float64)
    m = C.shape[1]
    if _effective_rank(C) < m:
        raise NumericalError(
            "feature mean matrix is rank deficient; cannot invert for the joint"
        )
    pinv_c = _pinv(C)
    raw = pinv_c @ p21 @ pinv_c.T
    clamp_mass = float(-raw[raw < 0.0].sum())
    np.maximum(raw, 0.0, out=raw)
    total = float(raw.sum())
    if total <= 0.0:
        raise NumericalError("pseudoinverse joint clamped to zero everywhere")
    raw /= total
    pi, T = chain_from_joint(raw)
    return pi, T, clamp_mass


def differential_states(per_cell_probs: np.ndarray, threshold: float) -> list[int]:
    """States whose success probabilities differ across two cell types.

    Requires exactly two rows in ``per_cell_probs``; returns indices h with
    ``abs(p[0, h] - p[1, h]) >= threshold`` sorted by descending gap.
    """
    probs = np.asarray(per_cell_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] != 2:
        raise ParameterError(
            f"differential calling is defined for exactly two cell types, got shape {probs.shape}"
        )
    if not 0.0 <= threshold <= 1.0:
        raise ParameterError(f"threshold must lie in [0, 1], got {threshold}")
    gaps = np.abs(probs[0] - probs[1])
    hits = [h for h in range(probs.shape[1]) if gaps[h] >= threshold]
    hits.sort(key=lambda h: -gaps[h])
    return hits
