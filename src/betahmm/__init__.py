"""Learning binomial hidden Markov models from methylation count sequences.

Two fitting routes share the same model types: a spectral method that maps
counts through histogram features, accumulates consecutive-triple moments and
decomposes them by joint diagonalization, and a Baum-Welch EM baseline.
Utilities cover synthetic benchmarks, differential-state calling across two
cell types, TSV ingestion and versioned model files.

``import betahmm`` loads no submodule: each public name is read from its
submodule on first use (PEP 562), so a program loads only the modules it
runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "em": ("EmConfig", "EmTrace", "em_fit", "log_likelihood", "random_init"),
    "errors": ("BetaHmmError", "DataError", "NumericalError", "ParameterError"),
    "features": (
        "BetaMapConfig", "FtdConfig", "beta_map", "cache_stats", "clear_cache",
        "empirical_prior_weight", "prior_weights",
    ),
    "hungarian": ("solve_assignment",),
    "io": (
        "ModelFile", "file_digest", "load_methylation_tsv", "load_model", "save_model",
        "write_methylation_tsv",
    ),
    "model": ("CountSequence", "HmmParams", "Observation", "validate_params"),
    "moments": ("MomentAccumulator", "MomentSet"),
    "pipeline": ("RecoveredModel", "ftd_fit", "ftd_fit_moments", "ftd_then_em"),
    "recovery": (
        "StateJoint", "chain_from_joint", "chain_via_pinv", "differential_states",
        "estimate_joint_lsq", "recover_meth_probs",
    ),
    "spectral": (
        "DecompositionResult", "WhiteningData", "joint_diagonalization", "pair_spectrum",
        "recover_feature_means", "symmetrize_moments", "tensor_power_method", "whiten",
    ),
    "synth": (
        "BenchmarkRow", "ExperimentReport", "SynthConfig", "estimation_error",
        "generate_params", "run_benchmark", "sample_sequence", "stationary_distribution",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not stored in the package namespace: a name patched or restored on its
    # submodule reads through here as it now stands
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | _MODULE_OF.keys())
