"""The package surface: exported names, submodules and package data."""

import importlib
import pathlib
import shutil
import subprocess
import sys

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


def test_build_ships_kernel_source(tmp_path):
    """The compiled kernel is built from _fast.c on import, so the package
    data must carry it (a wheel cannot be built without the ``wheel``
    package; build_py makes the same file selection)."""
    pytest.importorskip("setuptools")
    root = pathlib.Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info", "*.so", "*.pyd"))
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "build_py", "-d", str(tmp_path / "out")],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "tripcon" / "_kernels" / "_fast.c").is_file()
