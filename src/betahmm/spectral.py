"""Spectral decomposition of the moment tensor.

The pipeline mirrors the classic multi-view strategy: pairwise moments build
two change-of-view operators that recenter the first and third positions on
the middle hidden state, giving a symmetric order-3 tensor; a whitening map
derived from the symmetrized pair matrix orthogonalizes its components.

``joint_diagonalization`` decomposes the whitened tensor: orthogonal Jacobi
rotations jointly diagonalize the tensor's slices (Cardoso and Souloumiac,
SIAM J. Matrix Anal. Appl. 1996; Kuleshov, Chaganty and Liang, AISTATS 2015),
which involves no random start, so its output is a continuous function of the
tensor. The per-state feature means are read back from the eigenpairs through
the symmetric tensor. The random-restart ``tensor_power_method`` with
deflation is kept only as a reference decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .moments import MomentSet

__all__ = [
    "WhiteningData",
    "DecompositionResult",
    "symmetrize_moments",
    "pair_spectrum",
    "whiten",
    "tensor_power_method",
    "joint_diagonalization",
    "recover_feature_means",
]

# pseudoinverse / rank cutoff: singular values below dim * sigma_max * RANK_RTOL
# are treated as zero
RANK_RTOL = 1e-10

# Jacobi sweeps stop once no rotation angle (radians) exceeds this. The cap
# only bounds slow convergence: the official sweep's fits at lengths 128 and
# 8192 take 1-19 sweeps, and one takes 71
_JACOBI_ANGLE_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


@dataclass(eq=False)
class WhiteningData:
    """Whitening map and the pair matrix that produced it.

    ``w`` has orthonormal columns after scaling by the inverse square roots of
    the top eigenvalues of the symmetrized pair matrix, so
    ``w.T @ pair_matrix @ w`` is the identity.
    """

    w: np.ndarray
    singular_values: np.ndarray
    pair_matrix: np.ndarray


@dataclass(eq=False)
class DecompositionResult:
    """Eigenpairs of the whitened tensor plus recovered per-state feature means."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: list = field(default_factory=list)
    input_norm: float = 0.0
    feature_means: np.ndarray | None = None
    clamp_mass: float = 0.0
    sign_flips: int = 0


def _pinv(mat: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Pseudoinverse at the ``RANK_RTOL`` cutoff, optionally truncated to ``rank``.

    Truncation matters on noisy inputs: the population pair moments have rank
    equal to the number of states, and inverting the noise directions beyond
    it amplifies them by their inverse singular values.
    """
    if rank is None:
        return np.linalg.pinv(mat, rcond=max(mat.shape) * RANK_RTOL)
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = min(rank, int(np.sum(s > max(mat.shape) * RANK_RTOL * s[0])))
    return (vt[:keep].T / s[:keep]) @ u[:, :keep].T


def _effective_rank(mat: np.ndarray) -> int:
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > max(mat.shape) * RANK_RTOL * s[0]))


def _symmetric_part(t: np.ndarray) -> np.ndarray:
    return (
        t
        + t.transpose(0, 2, 1)
        + t.transpose(1, 0, 2)
        + t.transpose(1, 2, 0)
        + t.transpose(2, 0, 1)
        + t.transpose(2, 1, 0)
    ) / 6.0


def symmetrize_moments(
    moments: MomentSet, num_states: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Recenter the triple moment on the middle position.

    Returns ``(s1, s3, g, asymmetry)`` where ``s1 = p23 @ pinv(p13)`` maps
    first-position features to middle-view coordinates, ``s3 = p21 @ pinv(p31)``
    does the same for the third position, and ``g`` is the symmetric part of
    the transformed tensor. The transformed tensor is symmetric for population
    moments, so its asymmetry is pure sampling noise; ``asymmetry`` is its
    relative Frobenius distance from ``g``. Both pseudoinverses are truncated
    to ``num_states`` directions.
    """
    if num_states < 1:
        raise ParameterError(f"num_states must be >= 1, got {num_states}")
    # p31 is the transpose of p13, so one rank check covers both
    rank = _effective_rank(moments.p13)
    if rank < num_states:
        raise NumericalError(
            f"rank condition violated: effective rank of p13 is {rank}, "
            f"need at least {num_states}"
        )
    s1 = moments.p23 @ _pinv(moments.p13, rank=num_states)
    s3 = moments.p21 @ _pinv(moments.p31, rank=num_states)
    raw = np.einsum("ia,ajc,lc->ijl", s1, moments.t123, s3, optimize=True)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise NumericalError("transformed tensor is identically zero")
    g = _symmetric_part(raw)
    asymmetry = float(np.linalg.norm(raw - g)) / norm
    return s1, s3, g, asymmetry


def pair_spectrum(
    s3: np.ndarray, p32: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric part of the pair matrix ``s3 @ p32`` and its eigenpairs.

    The pair matrix equals the middle-view second moment for population
    inputs. Returns ``(pair_sym, values, vectors)`` with the eigenvalues in
    descending order and ``vectors[:, i]`` the eigenvector of ``values[i]``.
    """
    pair = s3 @ p32
    pair_sym = 0.5 * (pair + pair.T)
    vals, vecs = np.linalg.eigh(pair_sym)
    order = np.argsort(-vals, kind="stable")
    return pair_sym, vals[order], vecs[:, order]


def whiten(
    g: np.ndarray,
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray],
    num_states: int,
) -> tuple[WhiteningData, np.ndarray]:
    """Build the whitening map from a ``pair_spectrum`` and contract ``g`` with it.

    The top ``num_states`` eigendirections of the pair matrix are scaled to
    unit curvature. Returns the whitening data and the ``num_states`` cubed
    whitened tensor.
    """
    m = num_states
    pair_sym, vals, vecs = spectrum
    vals = vals[:m]
    vecs = vecs[:, :m].copy()
    top = float(np.abs(vals).max(initial=0.0))
    cutoff = pair_sym.shape[0] * RANK_RTOL * top
    if vals.size < m or vals[m - 1] <= cutoff:
        sigma_m = float(vals[m - 1]) if vals.size >= m else float("nan")
        raise NumericalError(
            f"whitening failed: eigenvalue {m} of the pair matrix is {sigma_m:.6e}, "
            f"below the rank cutoff {cutoff:.6e}"
        )
    # deterministic eigenvector signs: largest-magnitude entry made positive
    flip = vecs[np.abs(vecs).argmax(axis=0), np.arange(m)] < 0
    vecs[:, flip] *= -1.0
    w = vecs / np.sqrt(vals)[None, :]
    h = np.tensordot(g, w, axes=([0], [0]))
    h = np.tensordot(h, w, axes=([0], [0]))
    h = np.tensordot(h, w, axes=([0], [0]))
    return WhiteningData(w=w, singular_values=vals, pair_matrix=pair_sym), h


def _contract_once(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """t(I, v, v): contract the last two modes with v."""
    return (t @ v) @ v


def tensor_power_method(
    h: np.ndarray,
    num_components: int,
    iters_per_component: int = 30,
    restarts: int = 10,
    seed: int | None = None,
    lambda_tol: float | None = None,
) -> DecompositionResult:
    """Robust eigenpairs of a (nearly) symmetric tensor by power iteration.

    Each component runs ``restarts`` random unit starts for
    ``iters_per_component`` iterations, keeps the start with the largest
    eigenvalue, polishes it with another round of iterations, and deflates.
    Eigenvalues are reported positive (the joint sign flip of an eigenpair is
    a symmetry of odd-order tensors). Deterministic for a fixed seed.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 3 or len(set(h.shape)) != 1:
        raise ParameterError(f"expected a cubic order-3 tensor, got shape {h.shape}")
    dim = h.shape[0]
    if not 1 <= num_components <= dim:
        raise ParameterError(
            f"num_components must be in [1, {dim}], got {num_components}"
        )
    if iters_per_component < 1 or restarts < 1:
        raise ParameterError("iters_per_component and restarts must be >= 1")
    rng = np.random.default_rng(seed)
    input_norm = float(np.linalg.norm(h))
    if lambda_tol is None:
        lambda_tol = 1e-10 * max(1.0, input_norm)

    residual = h.copy()
    eigenvalues = np.empty(num_components)
    eigenvectors = np.empty((dim, num_components))
    residual_norms: list[float] = []

    def _iterate(theta: np.ndarray, iters: int) -> np.ndarray:
        for _ in range(iters):
            nxt = _contract_once(residual, theta)
            if not np.all(np.isfinite(nxt)):
                raise NumericalError("tensor power iteration produced non-finite values")
            norm = float(np.linalg.norm(nxt))
            if norm < 1e-300:
                break
            nxt /= norm
            if float(np.linalg.norm(nxt - theta)) < 1e-14:
                return nxt
            theta = nxt
        return theta

    for comp in range(num_components):
        best_lam = -np.inf
        best_theta = None
        for _ in range(restarts):
            theta = rng.standard_normal(dim)
            theta /= np.linalg.norm(theta)
            theta = _iterate(theta, iters_per_component)
            lam = float(_contract_once(residual, theta) @ theta)
            if lam < 0.0:
                theta = -theta
                lam = -lam
            if lam > best_lam:
                best_lam = lam
                best_theta = theta
        theta = _iterate(best_theta, iters_per_component)
        lam = float(_contract_once(residual, theta) @ theta)
        if lam < 0.0:
            theta = -theta
            lam = -lam
        if lam < lambda_tol:
            raise NumericalError(
                f"no component found: best eigenvalue {lam:.3e} for component "
                f"{comp} is below tolerance {lambda_tol:.3e}"
            )
        eigenvalues[comp] = lam
        eigenvectors[:, comp] = theta
        residual -= lam * np.einsum("i,j,k->ijk", theta, theta, theta)
        residual_norms.append(float(np.linalg.norm(residual)))

    return DecompositionResult(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        residual_norms=residual_norms,
        input_norm=input_norm,
    )


def joint_diagonalization(h: np.ndarray) -> DecompositionResult:
    """Orthogonal eigenpairs of a symmetric tensor by Jacobi joint diagonalization.

    The slices ``h[:, :, k]`` of an orthogonally decomposable tensor
    ``sum_i lambda_i v_i (x) v_i (x) v_i`` are all diagonal in the basis
    ``{v_i}``. Starting from the identity, Jacobi sweeps apply the plane
    rotation that minimizes the slices' joint off-diagonal mass for each index
    pair until no rotation angle exceeds ``_JACOBI_ANGLE_TOL``. Each column
    ``v`` of the final rotation gives ``lambda = h(v, v, v)``, made positive by
    flipping ``v``; components are ordered by descending eigenvalue. There is
    no random start, so the result is deterministic and moves continuously
    with ``h`` away from eigenvalue ties.

    ``residual_norms`` holds the norm of ``h`` minus the components taken so
    far, in order. An eigenvalue below ``1e-10 * max(1, ||h||)`` or a
    non-finite value raises ``NumericalError``.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 3 or len(set(h.shape)) != 1:
        raise ParameterError(f"expected a cubic order-3 tensor, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise NumericalError("joint diagonalization input has non-finite values")
    dim = h.shape[0]
    input_norm = float(np.linalg.norm(h))
    lambda_tol = 1e-10 * max(1.0, input_norm)

    slices = np.ascontiguousarray(h.transpose(2, 0, 1))
    rotation = np.eye(dim)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                diag_gap = slices[:, p, p] - slices[:, q, q]
                off = slices[:, p, q] + slices[:, q, p]
                ton = float(diag_gap @ diag_gap - off @ off)
                toff = float(2.0 * (diag_gap @ off))
                theta = 0.25 * np.arctan2(toff, ton)
                if abs(theta) <= _JACOBI_ANGLE_TOL:
                    continue
                rotated = True
                c, s = np.cos(theta), np.sin(theta)
                plane = np.array([[c, -s], [s, c]])
                pq = [p, q]
                slices[:, pq, :] = plane.T @ slices[:, pq, :]
                slices[:, :, pq] = slices[:, :, pq] @ plane
                rotation[:, pq] = rotation[:, pq] @ plane
        if not rotated:
            break

    eigenvalues = np.einsum("ijk,il,jl,kl->l", h, rotation, rotation, rotation)
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericalError("joint diagonalization produced non-finite values")
    negative = eigenvalues < 0.0
    rotation[:, negative] *= -1.0
    eigenvalues = np.abs(eigenvalues)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = rotation[:, order]
    if eigenvalues[-1] < lambda_tol:
        raise NumericalError(
            f"no component found: eigenvalue {eigenvalues[-1]:.3e} for component "
            f"{dim - 1} is below tolerance {lambda_tol:.3e}"
        )
    residual = h.copy()
    residual_norms: list[float] = []
    for lam, v in zip(eigenvalues, eigenvectors.T):
        residual -= lam * np.einsum("i,j,k->ijk", v, v, v)
        residual_norms.append(float(np.linalg.norm(residual)))
    return DecompositionResult(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        residual_norms=residual_norms,
        input_norm=input_norm,
    )


def recover_feature_means(
    result: DecompositionResult,
    whitening: WhiteningData,
    tensor: np.ndarray,
    num_blocks: int = 1,
) -> np.ndarray:
    """Per-state feature means from whitened eigenpairs.

    ``tensor`` is the symmetric tensor that was whitened. Column l is
    ``tensor(w v_l, w v_l, .)``: for population moments
    ``w.T @ mu_j = v_j / sqrt(pi_j)``, so this equals ``mu_l`` exactly and uses
    the same moments that fixed ``v_l``. The column is sign-fixed so it sums to
    a non-negative total, clamped at zero, and renormalized so every cell
    block sums to 1. Clamped mass and sign flips are recorded on ``result``.
    """
    w = whitening.w
    dim, m = w.shape
    if result.eigenvectors.shape[0] != m:
        raise ParameterError(
            f"eigenvector dimension {result.eigenvectors.shape[0]} does not match "
            f"whitening rank {m}"
        )
    if dim % num_blocks != 0:
        raise ParameterError(f"num_blocks {num_blocks} does not divide dimension {dim}")
    if tensor.shape != (dim, dim, dim):
        raise ParameterError(
            f"tensor shape {tensor.shape} does not match whitening dimension {dim}"
        )
    u = w @ result.eigenvectors
    raw = np.einsum("ijk,il,jl->kl", tensor, u, u)
    flips = 0
    for col in range(raw.shape[1]):
        if raw[:, col].sum() < 0.0:
            raw[:, col] *= -1.0
            flips += 1
    clamp_mass = float(-raw[raw < 0.0].sum())
    np.maximum(raw, 0.0, out=raw)
    block = dim // num_blocks
    shaped = raw.reshape(num_blocks, block, raw.shape[1])
    sums = shaped.sum(axis=1)
    if np.any(sums <= 0.0):
        # a fully clamped block carries no information; fall back to uniform
        for b, col in zip(*np.nonzero(sums <= 0.0)):
            shaped[b, :, col] = 1.0 / block
            sums[b, col] = 1.0
    shaped /= sums[:, None, :]
    means = shaped.reshape(dim, raw.shape[1])
    result.feature_means = means
    result.clamp_mass = clamp_mass
    result.sign_flips = flips
    return means
