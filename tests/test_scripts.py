"""Smoke runs of the command-line scripts on tiny inputs."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differential_demo_runs(capsys):
    script = _load("differential_demo")
    assert script.main(["--length", "3000"]) == 0
    assert "states with |gap| >= 0.3" in capsys.readouterr().out


def test_differential_demo_has_no_fit_seed(capsys):
    script = _load("differential_demo")
    with pytest.raises(SystemExit):
        script.main(["--length", "3000", "--fit-seed", "3"])
    capsys.readouterr()
