"""Structural checks on the qmlkit package, read from its source with ``ast``.

No qmlkit module imports or reads a ``_``-prefixed name of another
(dunders such as ``__version__`` are public), only ``cli.py`` opens
files, and every name that ``qmlkit.__all__`` lists resolves.
"""

import ast
from pathlib import Path

import pytest

import qmlkit

PACKAGE = "qmlkit"
SOURCES = sorted(Path(qmlkit.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The qmlkit module an import names, "" for the package itself, None if outside it."""
    module = node.module or ""
    if node.level == 1:
        return module
    if node.level == 0 and (module == PACKAGE or module.startswith(PACKAGE + ".")):
        return module[len(PACKAGE) + 1 :]
    return None


def private_reads(source: str, filename: str = "<module>") -> list[str]:
    """``line: text`` of each private name that a module takes from another qmlkit module.

    Caught: ``from .m import _x``, ``from . import _m``, ``import
    qmlkit._m`` and ``m._x`` for a qmlkit module ``m`` bound by an import.
    """
    tree = ast.parse(source, filename=filename)
    modules = set()  # local names bound to qmlkit modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _package_module(node)) is not None:
            for alias in node.names:
                if _private(alias.name) or any(_private(part) for part in module.split(".") if part):
                    found.append(f"{node.lineno}: {module or PACKAGE}.{alias.name}")
                if not module:  # from . import m
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    if any(_private(part) for part in parts):
                        found.append(f"{node.lineno}: {alias.name}")
                    if alias.asname:
                        modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _private(node.attr):
                found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_name_crosses_modules(path):
    assert private_reads(path.read_text(encoding="utf-8"), str(path)) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .dynamics import _rhs, propagate\n", ["1: dynamics._rhs"]),
        ("from qmlkit.embedding import _embed_batch\n", ["1: embedding._embed_batch"]),
        ("from . import embedding\nembedding._overlap_table(a, b)\n", ["2: embedding._overlap_table"]),
        ("from . import _hidden\n", ["1: qmlkit._hidden"]),
        ("import qmlkit.dynamics as dyn\ndyn._norm_bound(form)\n", ["2: dyn._norm_bound"]),
        ("from .states import DensityMatrix\nfrom . import cli\ncli.main(x._y, __version__)\n", []),
    ],
    ids=["from-import", "absolute", "attribute", "private-module", "aliased-module", "public-only"],
)
def test_guard_catches_private_reads(source, expected):
    assert private_reads(source) == expected


def opens(source: str, filename: str = "<module>") -> list[str]:
    """``line: text`` of each call to the builtin ``open`` or to an ``.open`` attribute (``io.open``, ``Path.open``)."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (isinstance(func, ast.Attribute) and func.attr == "open"):
                found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def test_only_the_cli_opens_files():
    found = {path.name: opens(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines and name != "cli.py"} == {}
    assert found["cli.py"]


@pytest.mark.parametrize(
    "source, expected",
    [
        ("with open(path) as fh:\n    fh.read()\n", ["1: open"]),
        ("import io\nio.open(path, 'w')\n", ["2: io.open"]),
        ("Path(path).open('w').write(text)\n", ["1: Path(path).open"]),
        ("fh.write(text)\nopener = open\n", []),
    ],
    ids=["builtin", "module-attribute", "path-method", "no-call"],
)
def test_guard_catches_opens(source, expected):
    assert opens(source) == expected


def test_every_public_name_resolves():
    assert len(set(qmlkit.__all__)) == len(qmlkit.__all__)
    assert [name for name in qmlkit.__all__ if not hasattr(qmlkit, name)] == []
    assert [name for name in qmlkit.__all__ if _private(name)] == []
