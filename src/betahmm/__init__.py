"""Learning binomial hidden Markov models from methylation count sequences.

Two fitting routes share the same model types: a spectral method that maps
counts through histogram features, accumulates consecutive-triple moments and
decomposes them by joint diagonalization, and a Baum-Welch EM baseline.
Utilities cover synthetic benchmarks, differential-state calling across two
cell types, TSV ingestion and versioned model files.
"""

from .em import EmConfig, EmTrace, em_fit, log_likelihood, random_init
from .errors import BetaHmmError, DataError, NumericalError, ParameterError
from .features import (
    BetaMapConfig,
    beta_map,
    cache_stats,
    clear_cache,
    empirical_prior_weight,
    prior_weights,
)
from .hungarian import solve_assignment
from .io import (
    ModelFile,
    file_digest,
    load_methylation_tsv,
    load_model,
    save_model,
    write_methylation_tsv,
)
from .model import CountSequence, HmmParams, Observation, validate_params
from .moments import MomentAccumulator, MomentSet
from .pipeline import FtdConfig, RecoveredModel, ftd_fit, ftd_fit_moments, ftd_then_em
from .recovery import (
    StateJoint,
    chain_from_joint,
    chain_via_pinv,
    differential_states,
    estimate_joint_lsq,
    recover_meth_probs,
)
from .spectral import (
    DecompositionResult,
    WhiteningData,
    joint_diagonalization,
    pair_spectrum,
    recover_feature_means,
    symmetrize_moments,
    tensor_power_method,
    whiten,
)
from .synth import (
    BenchmarkRow,
    ExperimentReport,
    SynthConfig,
    estimation_error,
    generate_params,
    run_benchmark,
    sample_sequence,
    stationary_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "BetaHmmError",
    "BetaMapConfig",
    "CountSequence",
    "DataError",
    "DecompositionResult",
    "EmConfig",
    "EmTrace",
    "ExperimentReport",
    "FtdConfig",
    "HmmParams",
    "ModelFile",
    "MomentAccumulator",
    "MomentSet",
    "NumericalError",
    "Observation",
    "ParameterError",
    "RecoveredModel",
    "StateJoint",
    "SynthConfig",
    "WhiteningData",
    "beta_map",
    "cache_stats",
    "chain_from_joint",
    "chain_via_pinv",
    "clear_cache",
    "differential_states",
    "em_fit",
    "empirical_prior_weight",
    "estimate_joint_lsq",
    "estimation_error",
    "file_digest",
    "ftd_fit",
    "ftd_fit_moments",
    "ftd_then_em",
    "generate_params",
    "joint_diagonalization",
    "load_methylation_tsv",
    "load_model",
    "log_likelihood",
    "pair_spectrum",
    "prior_weights",
    "random_init",
    "recover_feature_means",
    "recover_meth_probs",
    "run_benchmark",
    "sample_sequence",
    "save_model",
    "solve_assignment",
    "stationary_distribution",
    "symmetrize_moments",
    "tensor_power_method",
    "validate_params",
    "whiten",
    "write_methylation_tsv",
]
