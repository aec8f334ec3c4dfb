"""The package surface: exported names, submodules and package data."""

import ast
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


# The os names through which a module reads its environment.
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """The names of the environment variables a module reads, or "?" for
    a read whose name is not a string literal."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    names = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                or isinstance(node, ast.Name) and node.id in ENV_NAMES):
            continue
        up = parents[node]
        if (isinstance(up, ast.Attribute) and up.attr == "get"
                and isinstance(parents[up], ast.Call)):
            args = parents[up].args
        elif isinstance(up, ast.Call) and up.func is node:
            args = up.args
        elif isinstance(up, ast.Subscript) and up.value is node:
            args = [up.slice]
        else:
            args = []
        key = args[0] if args else None
        names.append(key.value if isinstance(key, ast.Constant)
                     and isinstance(key.value, str) else "?")
    return names


def test_package_reads_no_selection_variable():
    """No environment variable but XDG_CACHE_HOME, the cache's place,
    steers the package: the build and ``backend=`` alone pick the code
    that runs."""
    pkg = pathlib.Path(tripcon.__file__).parent
    reads = {}
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in _environment_reads(tree):
            reads.setdefault(name, []).append(path.relative_to(pkg).as_posix())
    assert set(reads) == {"XDG_CACHE_HOME"}, reads


def test_only_tree_assigns_a_taxon_sets_label_table():
    """Only the compiled Newick pass makes a label table, and only
    ``TaxonSet`` in tripcon.tree stores one: no other module assigns an
    attribute named ``_table``."""
    pkg = pathlib.Path(tripcon.__file__).parent
    writers = set()
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "_table"
               and isinstance(node.ctx, ast.Store) for node in ast.walk(tree)):
            writers.add(path.relative_to(pkg).as_posix())
    assert writers == {"tree.py"}, writers


# The oracle resolves triples only through ``triple_resolutions``.
DELETED_ORACLE_NAMES = {"resolve_triple", "is_conflict", "Resolution",
                        "ResolutionKind", "NonDistinctTaxaError"}


def _names(node):
    """The identifiers that an ast node binds, reads or exports."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name, node.asname]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # an ``__all__`` entry
    return []


def test_trees_keep_no_child_links_and_the_oracle_one_resolver():
    """A tree's children come only from ``Tree.children``, which reads
    them off ``leaf_count``: no module reads an attribute ``left`` or
    ``right``.  And no module names the oracle's retired resolvers."""
    pkg = pathlib.Path(tripcon.__file__).parent
    found = set()
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.relative_to(pkg).as_posix()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("left",
                                                                 "right"):
                found.add((module, node.attr))
            found.update((module, name) for name in _names(node)
                         if name in DELETED_ORACLE_NAMES)
    assert found == set(), sorted(found)


def test_compiled_module_exports_one_line_sink():
    """``_fast`` exports the kernel, the Newick pass, its label table and
    the one line sink: the conflicts lines have one compiled writer."""
    from tripcon._kernels import _fast
    if _fast is None:
        pytest.skip("compiled module not built")
    names = {name for name in dir(_fast) if not name.startswith("_")}
    assert names == {"run_enumeration", "parse_newick", "LineSink",
                     "LabelTable"}, sorted(names)
