"""The package surface: exported names and submodules."""

import importlib

import pytest

import tripcon


def test_all_names_resolve():
    for name in tripcon.__all__:
        assert getattr(tripcon, name) is not None, name


@pytest.mark.parametrize("name", [
    "cli", "enumeration", "equivalence", "errors", "generator", "lca",
    "newick", "oracle", "restrict", "tree",
])
def test_submodules_are_not_shadowed(name):
    module = importlib.import_module(f"tripcon.{name}")
    assert module.__name__ == f"tripcon.{name}"
    assert getattr(tripcon, name) is module
