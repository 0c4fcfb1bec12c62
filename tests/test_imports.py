"""Every name a limitlab module imports is read somewhere in that module.

A static scan with the standard library's ``ast``: a name counts as read
when it is loaded anywhere in the module, appears inside a string
annotation, or is exported through ``__all__``. A literal ``__all__`` exports
the names it lists; a computed one (``__init__`` builds it from ``dir()``)
exports every public name the module binds.

A second scan keeps row norms to their one implementation,
``dynamics._row_norm``: no module calls ``np.linalg.norm`` with an axis.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "limitlab"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line it is bound on."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module, imported) -> set[str]:
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in filter(None, _annotations(tree)):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        try:
            names |= set(ast.literal_eval(node.value))
        except ValueError:
            names |= {name for name in imported if not name.startswith("_")}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for every imported name the module never reads."""
    tree = ast.parse(source)
    imported = _imported(tree)
    read = _read(tree, imported)
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_counts_loads_string_annotations_and_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from x import a, b as c, d, e, f\n"
        "__all__ = ['d']\n"
        "def g(v: 'Optional[a]') -> Sequence:\n"
        "    return os.path.join(v)\n"
    )
    assert unused_imports(source) == [(4, "c"), (4, "e"), (4, "f")]
    computed = "from x import a, _b\n__all__ = [n for n in dir() if not n.startswith('_')]\n"
    assert unused_imports(computed) == [(1, "_b")]


def axis_norms(source: str) -> list[int]:
    """The line of every ``np.linalg.norm`` call that passes an axis, by
    keyword or as its third positional argument."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("np.linalg.norm", "numpy.linalg.norm")
                  and (len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords)))


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_row_norms_have_one_implementation(path):
    assert axis_norms(path.read_text()) == []


def test_the_norm_scan_finds_an_axis_however_it_is_passed():
    source = (
        "import numpy as np\n"
        "a = np.linalg.norm(x)\n"
        "b = np.linalg.norm(x, axis=1)\n"
        "c = np.linalg.norm(x, None, -1)\n"
        "d = numpy.linalg.norm(x, ord=2, axis=(0, 1))\n"
        "e = np.linalg.norm(np.ascontiguousarray(x), 2)\n"
    )
    assert axis_norms(source) == [3, 4, 5]
