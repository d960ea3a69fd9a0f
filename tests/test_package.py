"""The package's public names."""

import betahmm


def test_every_public_name_resolves():
    missing = [name for name in betahmm.__all__ if not hasattr(betahmm, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(betahmm.__all__)) == len(betahmm.__all__)


def test_star_import():
    namespace = {}
    exec("from betahmm import *", namespace)
    assert set(betahmm.__all__) <= namespace.keys()
