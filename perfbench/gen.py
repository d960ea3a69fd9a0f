"""Generate one workload's inputs from a seed.

    python3 perfbench/gen.py --workload genome-ftd --seed 0 --out DIR

The benchmark runs this as a child process, so the set-up time it reports
covers a cold interpreter, the betahmm import and the sampling and writing of
the count table. The same seed always gives byte-identical files.

Files written to DIR:
- ``counts.tsv`` (genome-ftd, two-cell): the count table the program fits.
- ``truth.json``: the planted model the output checks compare against, or
  for sweep the flags of the ``betahmm benchmark`` run, which samples its own
  sequences from its ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

WORKLOADS = ("genome-ftd", "sweep", "two-cell")
GENOME_LENGTH = 262144
TWO_CELL_LENGTH = 100_000
COVERAGE_MEAN = 25.0
SWEEP_LENGTHS = (512, 8192)
SWEEP_TRIALS = 10
# The planted models are fixed and the seed draws only the counts: a model
# drawn per seed changes the work of a fit (joint least-squares iterations,
# rank decisions) and so the time a run measures. Model 7 is the differential
# demo's; model 0 is the first draw of the SynthConfig() protocol.
MODEL_SEEDS = {"genome-ftd": 0, "two-cell": 7}
# The sweep draws its own models and data from its master seed, and EM's
# iterations to convergence depend on them: over five master seeds the sweep's
# wall time spread by 20% on a 2-core VM. So it runs the official protocol's seed unless told
# otherwise, whatever the benchmark seed.
SWEEP_SEED = 0
# criterion 10's planted model: state 0 diverges by 0.6 between the cells,
# every other state by at most 0.1
TWO_CELL_PROBS = (
    (0.20, 0.10, 0.35, 0.55, 0.70, 0.90),
    (0.80, 0.12, 0.30, 0.60, 0.65, 0.85),
)
TWO_CELL_DIVERGENT = 0


def data_seed(workload: str, seed: int) -> int:
    """Seed of the sampled counts, owned by one workload and benchmark seed."""
    return int(np.random.SeedSequence((seed, WORKLOADS.index(workload))).generate_state(1)[0])


def two_cell_params(model_seed: int):
    """The differential demo's six-state, two-cell model with a seeded chain."""
    from betahmm import HmmParams

    gen = np.random.default_rng(model_seed)
    m = len(TWO_CELL_PROBS[0])
    u = gen.uniform(size=(m, m))
    u /= u.sum(axis=0, keepdims=True)
    transition = 0.5 * np.eye(m) + 0.5 * u
    transition /= transition.sum(axis=0, keepdims=True)
    return HmmParams(
        initial_dist=gen.dirichlet(np.ones(m)),
        transition=transition,
        meth_probs=np.array(TWO_CELL_PROBS),
    )


def generate(workload: str, seed: int, out_dir: str, sweep_seed: int = SWEEP_SEED) -> None:
    from betahmm import SynthConfig, generate_params, sample_sequence, write_methylation_tsv

    os.makedirs(out_dir, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed}
    if workload == "sweep":
        truth.update(lengths=list(SWEEP_LENGTHS), trials=SWEEP_TRIALS, sweep_seed=sweep_seed)
    else:
        model_seed = MODEL_SEEDS[workload]
        if workload == "genome-ftd":
            params = generate_params(SynthConfig(), model_seed)
            length = GENOME_LENGTH
        else:
            params = two_cell_params(model_seed)
            length = TWO_CELL_LENGTH
            truth["divergent_state"] = TWO_CELL_DIVERGENT
        counts_seed = data_seed(workload, seed)
        seq = sample_sequence(params, length, COVERAGE_MEAN, counts_seed)
        write_methylation_tsv(os.path.join(out_dir, "counts.tsv"), seq)
        truth.update(
            model_seed=model_seed,
            data_seed=counts_seed,
            num_states=params.num_states,
            meth_probs=params.cell_probs().tolist(),
            transition=params.transition.tolist(),
            initial_dist=params.initial_dist.tolist(),
        )
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep-seed", type=int, default=SWEEP_SEED)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.sweep_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
