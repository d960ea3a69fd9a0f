"""Command line front end: simulate, fit, eval, benchmark.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors, 3 on numerical
failures. Every produced model file records the seed, configuration, and an
input digest, so runs can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from ._blas import _one_blas_thread
from .errors import DataError, NumericalError, ParameterError

# each command imports the modules it runs inside its _cmd_ function: a module
# costs its load, and its compile too where no bytecode cache is written

_PROG = "betahmm"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=_PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic model and sample counts")
    sim.add_argument("--length", type=int, required=True)
    sim.add_argument("--states", type=int, default=4)
    sim.add_argument("--cells", type=int, default=1)
    sim.add_argument("--coverage-mean", type=float, default=25.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output count table (TSV)")
    sim.add_argument("--truth", help="optional JSON path for the planted model")

    fit = sub.add_parser("fit", help="fit a model to a count table")
    fit.add_argument("--data", required=True)
    fit.add_argument("--out", required=True, help="output model JSON")
    fit.add_argument("--algo", choices=("ftd", "em", "ftd+em"), default="ftd")
    fit.add_argument("--states", type=int, required=True)
    fit.add_argument("--granularity", type=int, default=30)
    fit.add_argument("--seed", type=int, default=0, help="EM initialization seed")
    fit.add_argument("--train-frac", type=float, default=0.9)
    fit.add_argument("--context", help="keep only rows with this context")
    fit.add_argument("--merge-replicates", action="store_true")
    fit.add_argument("--em-iters", type=int, default=10)
    fit.add_argument("--em-tol", type=float, default=0.0,
                     help="fractional log-likelihood stop; 0 runs all iterations")
    fit.add_argument("--em-rounds", type=int, default=3,
                     help="EM refinement rounds after the spectral fit (ftd+em)")

    ev = sub.add_parser("eval", help="score a model on held-out data")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--train-frac", type=float, default=0.9)
    ev.add_argument("--context")
    ev.add_argument("--merge-replicates", action="store_true")
    ev.add_argument("--diff-threshold", type=float, default=0.3)
    ev.add_argument("--prob-floor", type=float, default=1e-9,
                    help="pull probabilities off 0/1 before scoring")

    bench = sub.add_parser("benchmark", help="length sweep comparing ftd and em")
    bench.add_argument("--lengths", type=int, nargs="+",
                       default=[128, 256, 512, 1024, 2048, 4096, 8192])
    bench.add_argument("--trials", type=int, default=20)
    bench.add_argument("--states", type=int, default=4)
    bench.add_argument("--coverage-mean", type=float, default=25.0)
    bench.add_argument("--granularity", type=int, default=30)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--out-dir", required=True)

    return parser


def _check_train_frac(frac: float) -> None:
    """The share of positions fitted on; checked before the table is read."""
    if not 0.0 < frac <= 1.0:
        raise ParameterError(f"train fraction must lie in (0, 1], got {frac}")


def _cmd_simulate(args) -> int:
    from . import io as model_io
    from .features import prior_weights
    from .synth import SynthConfig, generate_params, sample_sequence

    cfg = SynthConfig(
        num_states=args.states,
        num_cells=args.cells,
        coverage_mean=args.coverage_mean,
        seed=args.seed,
    )
    ss = np.random.SeedSequence((args.seed, args.length))
    param_seed, data_seed = (int(s) for s in ss.generate_state(2))
    params = generate_params(cfg, param_seed)
    seq = sample_sequence(params, args.length, args.coverage_mean, data_seed)
    model_io.write_methylation_tsv(args.out, seq)
    if args.truth:
        truth = model_io.ModelFile(
            num_states=params.num_states,
            num_cells=params.num_cells,
            granularity=None,
            initial_dist=params.initial_dist,
            transition=params.transition,
            meth_probs=params.cell_probs(),
            prior_weights=prior_weights(seq),
            provenance={
                "algorithm": "simulate",
                "seed": args.seed,
                "length": args.length,
                "coverage_mean": args.coverage_mean,
                # no timestamp: simulate output is byte-for-byte reproducible
                "timestamp": None,
            },
        )
        model_io.save_model(truth, args.truth)
    print(f"wrote {args.length} positions x {args.cells} cell(s) to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    from . import io as model_io
    from .features import FtdConfig

    # every flag is checked before the table is read; the EM flags are
    # recorded in every model's provenance, so they are checked for every
    # --algo, with EmConfig's messages, and an ftd fit need not load em
    _check_train_frac(args.train_frac)
    if args.states < 1:
        raise ParameterError(f"--states must be >= 1, got {args.states}")
    if args.em_rounds < 0:
        raise ParameterError(f"--em-rounds must be >= 0, got {args.em_rounds}")
    ftd_cfg = FtdConfig(granularity=args.granularity)
    if args.em_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {args.em_iters}")
    if not 0.0 <= args.em_tol < math.inf:
        raise ParameterError(f"rel_ll_tolerance must lie in [0, inf), got {args.em_tol}")
    seq = model_io.load_methylation_tsv(
        args.data, context_filter=args.context, merge_replicates=args.merge_replicates
    )
    train = seq[: int(len(seq) * args.train_frac)]
    diagnostics: dict = {}
    granularity: int | None = args.granularity
    if args.algo == "ftd":
        from .pipeline import ftd_fit

        model = ftd_fit(train, args.states, ftd_cfg)
        params = model.params
        weights = model.prior_weights
        diagnostics = model.diagnostics
    elif args.algo == "em":
        from .em import EmConfig, em_fit
        from .features import prior_weights

        em_cfg = EmConfig(max_iters=args.em_iters, rel_ll_tolerance=args.em_tol, seed=args.seed)
        trace = em_fit(train, args.states, em_cfg)
        params = trace.params
        weights = prior_weights(train)
        diagnostics = {"log_likelihoods": trace.log_likelihoods, "em_seconds": trace.seconds}
        granularity = None
    else:
        from .pipeline import ftd_then_em

        model, trace = ftd_then_em(train, args.states, ftd_cfg, rounds=args.em_rounds)
        params = trace.params
        weights = model.prior_weights
        diagnostics = {**model.diagnostics, "log_likelihoods": trace.log_likelihoods,
                       "em_seconds": trace.seconds}
    num_cells, positions = seq.num_cells, len(train)
    del seq, train  # the counts are freed before the digest reads the file
    out = model_io.ModelFile(
        num_states=args.states,
        num_cells=num_cells,
        granularity=granularity,
        initial_dist=params.initial_dist,
        transition=params.transition,
        meth_probs=params.cell_probs(),
        prior_weights=weights,
        diagnostics=diagnostics,
        provenance={
            "algorithm": args.algo,
            "seed": args.seed,
            "train_frac": args.train_frac,
            "context": args.context,
            "merge_replicates": args.merge_replicates,
            "input_sha256": model_io.file_digest(args.data),
            "config": asdict(ftd_cfg),
            "em_iters": args.em_iters,
            "em_tol": args.em_tol,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    )
    model_io.save_model(out, args.out)
    print(f"fit {args.algo} with {args.states} states on {positions} positions -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from . import io as model_io
    from .em import log_likelihood
    from .model import CountSequence, HmmParams

    _check_train_frac(args.train_frac)
    floor = args.prob_floor
    if not 0.0 <= floor < 0.5:
        raise ParameterError(f"--prob-floor must lie in [0, 0.5), got {floor}")
    if not 0.0 <= args.diff_threshold <= 1.0:
        raise ParameterError(f"--diff-threshold must lie in [0, 1], got {args.diff_threshold}")
    model = model_io.load_model(args.model)
    seq = model_io.load_methylation_tsv(
        args.data, context_filter=args.context, merge_replicates=args.merge_replicates
    )
    if seq.num_cells != model.num_cells:
        raise DataError(
            f"model carries {model.num_cells} cell(s) but data carries {seq.num_cells}"
        )
    cut = int(len(seq) * args.train_frac)
    if cut == len(seq):
        raise DataError("no positions left for evaluation after the train split")
    # a copy of the test rows only, so the training rows are freed before scoring
    cov, meth = seq.coverage[cut:].copy(), seq.meth[cut:].copy()
    del seq
    cov.setflags(write=False)  # read-only int64: the sequence keeps it as it is
    meth.setflags(write=False)
    test = CountSequence(cov, meth)
    params = HmmParams(
        initial_dist=model.initial_dist,
        transition=model.transition,
        meth_probs=np.clip(model.meth_probs, floor, 1.0 - floor),
    )
    ll = log_likelihood(params, test)
    result = {
        "test_positions": len(test),
        "test_log_likelihood": ll,
        "per_position": ll / len(test),
    }
    if model.num_cells == 2:
        from .recovery import differential_states

        result["diff_threshold"] = args.diff_threshold
        result["differential_states"] = differential_states(
            model.meth_probs, args.diff_threshold
        )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_benchmark(args) -> int:
    import os

    from .features import FtdConfig
    from .synth import SynthConfig, run_benchmark

    cfg = SynthConfig(
        num_states=args.states,
        coverage_mean=args.coverage_mean,
        lengths=tuple(args.lengths),
        trials=args.trials,
        seed=args.seed,
        ftd=FtdConfig(granularity=args.granularity),
    )
    report = run_benchmark(cfg, threads=args.threads)
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    report.write_csv(report_path)
    report.write_summary_csv(summary_path)
    for row in report.summarize():
        print(
            f"length {row['length']:>6} {row['algorithm']:>4}: "
            f"ok {row['ok']}/{row['trials']} mean error {row['mean_error']:.4f} "
            f"mean seconds {row['mean_seconds']:.3f}"
        )
    print(f"wrote {report_path} and {summary_path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    try:
        with _one_blas_thread():
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ParameterError, OSError) as exc:
        print(f"{_PROG}: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{_PROG}: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
