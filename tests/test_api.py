"""The public names: every name a module exports must resolve."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["su4rabi", "su4rabi.models", "su4rabi.dynamics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import_runs():
    namespace: dict = {}
    exec("from su4rabi import *", namespace)
    assert "relabel_drive" in namespace
    assert "invert_drive" not in namespace
