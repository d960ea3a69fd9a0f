"""The package's public names, and which commands load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import betahmm
from betahmm import features

_SRC = str(Path(betahmm.__file__).resolve().parent.parent)

# runs one CLI command (none: imports only) and reports the scipy modules
# loaded; with "block" first, every scipy import raises ImportError
_PROBE = """
import json, sys
args = sys.argv[1:]
if args[:1] == ["block"]:
    sys.modules["scipy"] = None
    args = args[1:]
import betahmm
from betahmm.cli import main
code = main(args) if args else 0
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(json.dumps({"code": code, "scipy": loaded}))
"""


def _scipy_after(*argv):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(str, argv)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result["scipy"]


def test_every_public_name_resolves():
    missing = [name for name in betahmm.__all__ if not hasattr(betahmm, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(betahmm.__all__)) == len(betahmm.__all__)


def test_star_import():
    namespace = {}
    exec("from betahmm import *", namespace)
    assert set(betahmm.__all__) <= namespace.keys()


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
