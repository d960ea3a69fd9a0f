#!/usr/bin/env python3
"""Two-cell differential-state demo.

Plants a six-state model shared by two cells where exactly one state has a
large methylation gap between the cells, fits the spectral pipeline on a
sampled sequence, and reports which states get flagged as differential.
"""

import argparse
import sys

import numpy as np

from betahmm import FtdConfig, HmmParams, ftd_fit, sample_sequence
from betahmm.recovery import differential_states


def build_params(seed: int) -> HmmParams:
    # state 0 diverges by 0.6 between the cells; the rest stay within 0.1
    p_a = np.array([0.20, 0.10, 0.35, 0.55, 0.70, 0.90])
    p_b = np.array([0.80, 0.12, 0.30, 0.60, 0.65, 0.85])
    gen = np.random.default_rng(seed)
    m = p_a.size
    u = gen.uniform(size=(m, m))
    u /= u.sum(axis=0, keepdims=True)
    transition = 0.5 * np.eye(m) + 0.5 * u
    transition /= transition.sum(axis=0, keepdims=True)
    return HmmParams(
        initial_dist=gen.dirichlet(np.ones(m)),
        transition=transition,
        meth_probs=np.stack([p_a, p_b]),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=100_000)
    parser.add_argument("--coverage", type=float, default=25.0)
    parser.add_argument("--threshold", type=float, default=0.3)
    parser.add_argument("--granularity", type=int, default=12)
    parser.add_argument("--model-seed", type=int, default=7)
    parser.add_argument("--data-seed", type=int, default=11)
    args = parser.parse_args(argv)

    params = build_params(args.model_seed)
    truth = params.meth_probs
    print("planted per-state gaps:", np.round(np.abs(truth[0] - truth[1]), 3))

    seq = sample_sequence(params, args.length, args.coverage, seed=args.data_seed)
    model = ftd_fit(seq, truth.shape[1], FtdConfig(granularity=args.granularity))

    est = model.per_cell_probs
    print("recovered cell A probs:", np.round(est[0], 3))
    print("recovered cell B probs:", np.round(est[1], 3))
    print("recovered per-state gaps:", np.round(np.abs(est[0] - est[1]), 3))

    flagged = differential_states(est, threshold=args.threshold)
    print(f"states with |gap| >= {args.threshold}: {flagged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
