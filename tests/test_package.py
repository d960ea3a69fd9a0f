"""The package's public names, and which modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import betahmm
from betahmm import features

_SRC = str(Path(betahmm.__file__).resolve().parent.parent)

# runs one CLI command (none: `import betahmm` only) and reports the modules
# loaded; with "block" first, every scipy import raises ImportError
_PROBE = """
import json, sys
args = sys.argv[1:]
if args[:1] == ["block"]:
    sys.modules["scipy"] = None
    args = args[1:]
import betahmm
if args:
    from betahmm.cli import main
code = main(args) if args else 0
print(json.dumps({"code": code, "loaded": sorted(m for m, mod in sys.modules.items() if mod)}))
"""


def _loaded_after(*argv):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(str, argv)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return set(result["loaded"])


def _scipy_after(*argv):
    return sorted(m for m in _loaded_after(*argv) if m.split(".")[0] == "scipy")


def _submodule(name):
    return next(module for module, names in betahmm._SOURCES.items() if name in names)


def test_every_public_name_resolves():
    missing = [name for name in betahmm.__all__ if not hasattr(betahmm, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(betahmm.__all__)) == len(betahmm.__all__)


def test_star_import():
    namespace = {}
    exec("from betahmm import *", namespace)
    assert set(betahmm.__all__) <= namespace.keys()


def test_every_public_name_is_its_submodules_object():
    for name in betahmm.__all__:
        module = importlib.import_module(f"betahmm.{_submodule(name)}")
        assert getattr(betahmm, name) is getattr(module, name), name


def test_public_names_read_through_to_a_patched_submodule(monkeypatch):
    # perfbench's span tracer patches submodule attributes and later restores them
    original = features.prior_weights
    assert betahmm.prior_weights is original

    def patched(seq):
        return original(seq)

    monkeypatch.setattr(features, "prior_weights", patched)
    assert betahmm.prior_weights is patched
    monkeypatch.undo()
    assert betahmm.prior_weights is original
    assert "prior_weights" not in vars(betahmm)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(betahmm, "no_such_name")


def test_import_loads_no_submodule():
    assert sorted(m for m in _loaded_after() if m.startswith("betahmm.")) == []


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    data, model = tmp_path / "counts.tsv", tmp_path / "model.json"
    simulate = _loaded_after("simulate", "--length", "400", "--states", "2", "--out", data)
    # sampling and writing a table need none of the sweep's modules
    assert "betahmm.synth" in simulate
    sweep = {
        *(f"betahmm.{m}" for m in ("em", "hungarian", "pipeline", "spectral", "moments",
                                   "recovery")),
        "concurrent.futures", "csv",
    }
    assert simulate.isdisjoint(sweep), sorted(simulate & sweep)
    fit = _loaded_after("fit", "--data", data, "--states", "2", "--granularity", "8",
                        "--algo", "ftd", "--out", model)
    assert "betahmm.pipeline" in fit
    assert fit.isdisjoint({"betahmm.synth", "betahmm.hungarian", "betahmm.em"})
    em_fit = _loaded_after("fit", "--data", data, "--states", "2", "--algo", "em",
                           "--em-iters", "2", "--out", tmp_path / "em.json")
    assert "betahmm.em" in em_fit
    spectral = {f"betahmm.{m}" for m in ("pipeline", "spectral", "moments", "recovery", "synth",
                                         "hungarian")}
    assert em_fit.isdisjoint(spectral), sorted(em_fit & spectral)
    evaluate = _loaded_after("eval", "--model", model, "--data", data)
    assert "betahmm.em" in evaluate
    unused = {
        *(f"betahmm.{m}" for m in ("pipeline", "moments", "spectral", "features", "recovery",
                                   "synth", "hungarian")),
        "concurrent.futures", "csv", "hashlib",
    }
    assert evaluate.isdisjoint(unused), sorted(evaluate & unused)


def test_import_loads_no_scipy():
    assert _scipy_after() == []


def test_every_command_runs_without_scipy(tmp_path):
    # simulate draws Poisson(25) coverage, far below the feature map's
    # betainc bound, so no command may import scipy
    data, model = tmp_path / "counts.tsv", tmp_path / "model.json"
    fit = ("block", "fit", "--data", data, "--states", "2", "--granularity", "8", "--out", model)
    simulate = ("block", "simulate", "--length", "400", "--states", "2", "--out", data)
    assert _scipy_after(*simulate) == []
    for algo in ("ftd", "em", "ftd+em"):
        assert _scipy_after(*fit, "--algo", algo, "--em-iters", "3", "--em-rounds", "2") == []
        assert _scipy_after("block", "eval", "--model", model, "--data", data) == []
    bench = ("--lengths", "256", "--trials", "2", "--threads", "1", "--out-dir", tmp_path / "bench")
    assert _scipy_after("block", "benchmark", *bench) == []


def test_coverage_above_the_bound_loads_scipy_special(tmp_path):
    data, model = tmp_path / "counts.tsv", tmp_path / "model.json"
    mean = 2 * features._TAIL_MAX_COVERAGE
    _scipy_after("simulate", "--length", "400", "--states", "2", "--coverage-mean", mean,
                 "--out", data)
    fit = ("fit", "--data", data, "--states", "2", "--granularity", "8", "--out", model)
    assert "scipy.special" in _scipy_after(*fit)
