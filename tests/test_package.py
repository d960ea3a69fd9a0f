"""The package's public names, and which commands load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import betahmm

_SRC = str(Path(betahmm.__file__).resolve().parent.parent)

# runs one CLI command (none: imports only) and reports the scipy modules loaded
_PROBE = """
import json, sys
import betahmm
from betahmm.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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


def test_only_the_spectral_fit_loads_scipy(tmp_path):
    data, em_model, ftd_model = tmp_path / "counts.tsv", tmp_path / "em.json", tmp_path / "ftd.json"
    fit = ("fit", "--data", data, "--states", "2", "--granularity", "8")
    assert _scipy_after("simulate", "--length", "400", "--states", "2", "--out", data) == []
    assert _scipy_after(*fit, "--algo", "em", "--em-iters", "3", "--out", em_model) == []
    assert _scipy_after("eval", "--model", em_model, "--data", data) == []
    assert "scipy.special" in _scipy_after(*fit, "--algo", "ftd", "--out", ftd_model)
    assert _scipy_after("eval", "--model", ftd_model, "--data", data) == []
