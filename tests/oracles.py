"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: expectations by
exhaustive enumeration, likelihoods by summing over every hidden path,
matchings by trying every permutation. The tests compare the fast library
code against these, so nothing in this module may import from the modules it
checks (container types are the one exception).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, logsumexp
from scipy.stats import binom as binom_dist

from betahmm.errors import DataError
from betahmm.model import CountSequence
from betahmm.moments import MomentSet

# Maximum number of hidden paths the brute-force likelihood will enumerate.
MAX_PATHS = 2_000_000


def beta_histogram_row(coverage: int, meth: int, granularity: int) -> np.ndarray:
    """Histogram mass of Beta(meth + 1, coverage - meth + 1) per bin of [0, 1]."""
    edges = np.linspace(0.0, 1.0, granularity + 1)
    cdf = betainc(meth + 1.0, coverage - meth + 1.0, edges)
    return np.diff(cdf)


def exact_beta_histogram_rows(coverage: int, granularity: int) -> np.ndarray:
    """``beta_histogram_row`` of every count 0..coverage, in exact arithmetic.

    I_x(mu + 1, c - mu + 1) = P(Binomial(c + 1, x) >= mu + 1), so at the edge
    x = i / D the cdf times D**(c + 1) is the integer sum over k > mu of
    comb(c + 1, k) i**k (D - i)**(c + 1 - k). Each mass is a difference of two
    such sums divided once by D**(c + 1), which rounds correctly.
    Returns shape (coverage + 1, granularity).
    """
    n, D = coverage + 1, granularity
    tails = []
    for i in range(D + 1):
        tail = [0] * (n + 2)
        for k in range(n, -1, -1):
            tail[k] = tail[k + 1] + math.comb(n, k) * i**k * (D - i) ** (n - k)
        tails.append(tail)
    return np.array(
        [[(tails[i + 1][mu + 1] - tails[i][mu + 1]) / D**n for i in range(D)] for mu in range(n)]
    )


def reference_features(seq, granularity: int) -> np.ndarray:
    """Feature matrix of a sequence, shape (length, num_cells * granularity).

    Row t concatenates one ``beta_histogram_row`` per cell of position t.
    """
    return np.array(
        [
            np.concatenate(
                [
                    beta_histogram_row(int(c), int(mu), granularity)
                    for c, mu in zip(seq.coverage[t], seq.meth[t])
                ]
            )
            for t in range(len(seq))
        ]
    )


def exact_feature_map(probs, coverage_dist, granularity: int) -> np.ndarray:
    """Per-state expected histogram features by full enumeration.

    ``coverage_dist`` is a list of (coverage, weight) pairs with weights
    summing to 1. Column h is the double sum over coverage values and success
    counts of P(c) * Binomial(mu; c, p_h) * histogram(c, mu).
    """
    probs = np.asarray(probs, dtype=np.float64).ravel()
    out = np.zeros((granularity, probs.size))
    for coverage, weight in coverage_dist:
        mu = np.arange(coverage + 1)
        rows = np.stack(
            [beta_histogram_row(coverage, int(k), granularity) for k in mu]
        )
        for h, p in enumerate(probs):
            out[:, h] += weight * (binom_dist.pmf(mu, coverage, p) @ rows)
    return out


def chain_joints(pi, transition):
    """Exact state joints at lags 1 and 2 plus the three-step joint tensor.

    Orientation matches the library: joint12[a, b] = P(h1 = a, h2 = b) with a
    column-stochastic transition matrix (entry [i, j] = P(next i | current j)).
    """
    pi = np.asarray(pi, dtype=np.float64)
    T = np.asarray(transition, dtype=np.float64)
    j12 = np.diag(pi) @ T.T
    j13 = np.diag(pi) @ (T @ T).T
    j23 = np.diag(T @ pi) @ T.T
    j123 = np.einsum("a,ba,cb->abc", pi, T, T)
    return j12, j13, j23, j123


def population_moments(pi, transition, feature_map, count=10**9, num_blocks=1):
    """Population feature moments of a stationary chain, as a MomentSet.

    ``feature_map`` holds one expected feature column per state. The count is
    only bookkeeping; population moments carry no sampling noise.
    """
    C = np.asarray(feature_map, dtype=np.float64)
    j12, j13, j23, j123 = chain_joints(pi, transition)
    p12 = C @ j12 @ C.T
    p13 = C @ j13 @ C.T
    p23 = C @ j23 @ C.T
    t123 = np.einsum("abc,ia,jb,kc->ijk", j123, C, C, C, optimize=True)
    return MomentSet(
        p12=p12,
        p13=p13,
        p23=p23,
        t123=t123,
        count=count,
        num_blocks=num_blocks,
    ).validate()


def stationary_oracle(transition) -> np.ndarray:
    """Stationary distribution by solving the linear system directly."""
    T = np.asarray(transition, dtype=np.float64)
    m = T.shape[0]
    system = np.vstack([np.eye(m) - T, np.ones(m)])
    rhs = np.zeros(m + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return sol


def brute_force_log_likelihood(params, seq) -> float:
    """HMM log-likelihood by summing over every hidden path in log space."""
    pi = params.initial_dist
    T = params.transition
    p = params.cell_probs()
    length, m = len(seq), pi.size
    if m**length > MAX_PATHS:
        raise ValueError(f"too many paths: {m}^{length}")
    paths = np.stack(
        np.unravel_index(np.arange(m**length), (m,) * length), axis=1
    )
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_T = np.log(T)
    total = log_pi[paths[:, 0]]
    for t in range(1, length):
        total = total + log_T[paths[:, t], paths[:, t - 1]]
    for t in range(length):
        for cell in range(seq.num_cells):
            c = int(seq.coverage[t, cell])
            mu = int(seq.meth[t, cell])
            total = total + binom_dist.logpmf(mu, c, p[cell, paths[:, t]])
    return float(logsumexp(total))


def sequential_forward_backward(pi, T, log_b):
    """Scaled forward-backward with one loop step per position.

    Returns (log-likelihood, alphas, scales, betas) in the library's
    convention: alphas are normalized filtering distributions, scales the
    per-position normalizers and betas scaled so that alpha_t . beta_t = 1.
    Raises ValueError at the first position whose normalizer is not positive
    and finite.
    """
    L, m = log_b.shape
    shift = log_b.max(axis=1)
    b = np.exp(log_b - shift[:, None])
    alphas = np.empty((L, m))
    scales = np.empty(L)
    vec = pi * b[0]
    for t in range(L):
        if t > 0:
            vec = (T @ alphas[t - 1]) * b[t]
        s = float(vec.sum())
        if s <= 0.0 or not np.isfinite(s):
            raise ValueError(f"forward pass underflowed at position {t}")
        alphas[t] = vec / s
        scales[t] = s
    betas = np.empty((L, m))
    betas[L - 1] = 1.0
    for t in range(L - 2, -1, -1):
        betas[t] = (T.T @ (b[t + 1] * betas[t + 1])) / scales[t + 1]
    log_like = float(np.log(scales).sum() + shift.sum())
    return log_like, alphas, scales, betas


def sequential_states(params, u) -> np.ndarray:
    """Hidden states by one inverse-CDF lookup per position.

    State t is the first index whose cumulative probability reaches ``u[t]``,
    capped at the last state.
    """
    m = params.num_states
    cum_T = np.cumsum(params.transition, axis=0)
    states = np.empty(len(u), dtype=np.int64)
    states[0] = min(int(np.searchsorted(np.cumsum(params.initial_dist), u[0])), m - 1)
    for t in range(1, len(u)):
        states[t] = min(int(np.searchsorted(cum_T[:, states[t - 1]], u[t])), m - 1)
    return states


def permutation_match_error(p_true, p_est):
    """Minimum summed absolute error over every state permutation.

    Returns (error, permutation) with permutation applied to the estimate.
    """
    p_true = np.asarray(p_true, dtype=np.float64).ravel()
    p_est = np.asarray(p_est, dtype=np.float64).ravel()
    best_err, best_perm = np.inf, None
    for perm in itertools.permutations(range(p_true.size)):
        err = float(np.abs(p_true - p_est[list(perm)]).sum())
        if err < best_err:
            best_err, best_perm = err, perm
    return best_err, best_perm


def match_states_multicell(true_probs, est_probs):
    """Best state permutation for stacked per-cell probability matrices.

    Cost of pairing true state h with estimated state l is the sum over cells
    of the absolute probability differences. Exhaustive search, so only
    suitable for small state counts.
    """
    true_probs = np.asarray(true_probs, dtype=np.float64)
    est_probs = np.asarray(est_probs, dtype=np.float64)
    m = true_probs.shape[1]
    best_err, best_perm = np.inf, None
    for perm in itertools.permutations(range(m)):
        err = float(np.abs(true_probs - est_probs[:, list(perm)]).sum())
        if err < best_err:
            best_err, best_perm = err, perm
    return best_err, np.asarray(best_perm, dtype=np.int64)


def simplex_lsq_by_enumeration(p21, C):
    """Least squares of ``p21 ~ C @ H @ C.T`` over the simplex, by supports.

    For every nonempty support S of vec(H) it solves the least squares with
    H zero off S and sum(H) = 1: the sum row is eliminated by writing H_S as
    the first support entry plus free differences, and ``np.linalg.lstsq``
    solves the rest. The best solution with no negative entry is the
    constrained optimum. Returns ``(H, objective)``. Costs 2**(m*m) - 1
    solves, so it is only for m <= 3.
    """
    C = np.asarray(C, dtype=np.float64)
    m = C.shape[1]
    n = m * m
    design = np.kron(C, C)  # vec(C H C.T) = kron(C, C) vec(H), row-major
    target = np.asarray(p21, dtype=np.float64).ravel()
    best_h, best_obj = None, np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = design[:, list(support)]
            # H_S = (1 - sum(z), z) keeps the sum at 1 for any z
            diffs = cols[:, 1:] - cols[:, :1]
            z = np.linalg.lstsq(diffs, target - cols[:, 0], rcond=None)[0]
            entries = np.concatenate([[1.0 - z.sum()], z])
            if entries.min() < 0.0:
                continue
            x = np.zeros(n)
            x[list(support)] = entries
            resid = target - design @ x
            obj = float(resid @ resid)
            if obj < best_obj:
                best_h, best_obj = x.reshape(m, m), obj
    return best_h, best_obj


def dense_symmetric_triple(moments, s1, s3):
    """The recentred triple as a dense D x D x D array: (g, asymmetry).

    g is the symmetric part of raw = t123(s1.T ., ., s3.T .), and asymmetry
    is the relative Frobenius distance of raw from g.
    """
    raw = np.einsum("ia,ajc,lc->ijl", s1, moments.t123, s3, optimize=True)
    g = sum(raw.transpose(axes) for axes in itertools.permutations(range(3))) / 6.0
    return g, float(np.linalg.norm(raw - g) / np.linalg.norm(raw))


def naive_moment_means(f1, f2, f3):
    """Plain-summation moment means over explicit feature triples."""
    n = len(f1)
    d = f1[0].size
    p12 = np.zeros((d, d))
    p13 = np.zeros((d, d))
    p23 = np.zeros((d, d))
    t123 = np.zeros((d, d, d))
    for a, b, c in zip(f1, f2, f3):
        p12 += np.outer(a, b)
        p13 += np.outer(a, c)
        p23 += np.outer(b, c)
        t123 += a[:, None, None] * b[None, :, None] * c[None, None, :]
    return p12 / n, p13 / n, p23 / n, t123 / n


def reference_feature_keys(seq):
    """Distinct (coverage, count) pairs of a sequence and each position's pair.

    Returns ``(cov_u, meth_u, index)`` with the pairs in increasing order, as
    ``features.feature_table`` keys them. Each pair is coded as one integer
    from the ranks of its two counts among all count values (one np.unique
    over the 2L values, a second over the L codes), so codes stay below
    (2L)**2 however large the counts are.
    """
    cov = seq.coverage.ravel()
    values, ranks = np.unique(np.concatenate([cov, seq.meth.ravel()]), return_inverse=True)
    radix = values.size
    keys, index = np.unique(ranks[: cov.size] * radix + ranks[cov.size :], return_inverse=True)
    return values[keys // radix], values[keys % radix], index.reshape(seq.coverage.shape)


# The count-table reader and writer as they were before the columnar rewrite:
# one text-mode line at a time, one record per row, one int() per field.
REFERENCE_TSV_COLUMNS = ("chrom", "bin_start", "context")


def _reference_header(line: str) -> int:
    fields = line.rstrip("\n").split("\t")
    if tuple(fields[:3]) != REFERENCE_TSV_COLUMNS:
        raise DataError(
            f"header must start with {' '.join(REFERENCE_TSV_COLUMNS)}, got {fields[:3]}"
        )
    rest = fields[3:]
    if not rest or len(rest) % 2 != 0:
        raise DataError("header must carry cov_i/meth_i column pairs")
    for idx in range(0, len(rest), 2):
        cell = idx // 2 + 1
        if rest[idx] != f"cov_{cell}" or rest[idx + 1] != f"meth_{cell}":
            raise DataError(
                f"expected columns cov_{cell} meth_{cell}, got {rest[idx]} {rest[idx + 1]}"
            )
    return len(rest) // 2


@dataclass(frozen=True)
class ReferenceRecord:
    """One row of a count table: location, context, and per-cell counts."""

    chrom: str
    bin_start: int
    context: str
    coverage: tuple[int, ...]
    meth: tuple[int, ...]


def reference_load_records(path, bin_size: int = 100) -> list[ReferenceRecord]:
    """Row-by-row count-table parser: the reference for the columnar reader."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise DataError(f"{path}: empty file")
        num_cells = _reference_header(header)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 + 2 * num_cells:
                raise DataError(
                    f"{path}:{lineno}: expected {3 + 2 * num_cells} fields, got {len(fields)}"
                )
            try:
                bin_start = int(fields[1])
                counts = [int(x) for x in fields[3:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if bin_start < 0 or bin_start % bin_size != 0:
                raise DataError(
                    f"{path}:{lineno}: bin_start {bin_start} is not a multiple of {bin_size}"
                )
            cov = tuple(counts[0::2])
            meth = tuple(counts[1::2])
            for j, (c, mu) in enumerate(zip(cov, meth)):
                if c < 0 or mu < 0 or mu > c:
                    raise DataError(
                        f"{path}:{lineno}: cell {j + 1} has meth {mu} outside [0, {c}]"
                    )
            # the reader's int64 columns hold no count of 2**63 or more
            if max(bin_start, *counts) >= 2**63:
                raise DataError(
                    f"{path}:{lineno}: bin_start and counts must be plain decimal "
                    "integers within the 64-bit range"
                )
            records.append(
                ReferenceRecord(
                    chrom=fields[0],
                    bin_start=bin_start,
                    context=fields[2],
                    coverage=cov,
                    meth=meth,
                )
            )
    return records


def reference_load_tsv(
    path, context_filter=None, merge_replicates: bool = False, bin_size: int = 100
) -> CountSequence:
    """Reference :func:`betahmm.io.load_methylation_tsv` built on the row parser."""
    records = reference_load_records(path, bin_size=bin_size)
    if context_filter is not None:
        records = [r for r in records if r.context == context_filter]
    if not records:
        raise DataError(f"{path}: no rows left after filtering")
    cov = np.array([r.coverage for r in records], dtype=np.int64)
    meth = np.array([r.meth for r in records], dtype=np.int64)
    if merge_replicates:
        if cov.shape[1] % 2 != 0:
            raise DataError(
                f"{path}: merging replicates needs an even number of cell columns, got {cov.shape[1]}"
            )
        cov = cov[:, 0::2] + cov[:, 1::2]
        meth = meth[:, 0::2] + meth[:, 1::2]
    return CountSequence(cov, meth)


def reference_write_tsv(path, seq, chrom="sim", context="CG", bin_size: int = 100) -> None:
    """Row-by-row count-table writer: the reference for the columnar writer."""
    k = seq.num_cells
    header = list(REFERENCE_TSV_COLUMNS) + [
        col for j in range(1, k + 1) for col in (f"cov_{j}", f"meth_{j}")
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for t in range(len(seq)):
            counts = [
                str(x)
                for j in range(k)
                for x in (int(seq.coverage[t, j]), int(seq.meth[t, j]))
            ]
            fh.write("\t".join([chrom, str(t * bin_size), context] + counts) + "\n")
