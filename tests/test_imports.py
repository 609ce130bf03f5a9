"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "projectivoid"


def module_imports(tree):
    """{bound name: line} of the imports in the module body, but for
    ``from __future__``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


# __init__.py imports to re-export.
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in module_imports(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


# The determinants run on bare integer kernels ({n: a} dicts); reading a
# ring's or a matrix's fields to lift entries onto them is the job of
# matrices (scaled_rows, _flat_rows).
def test_determinants_read_no_ring_or_matrix_attribute():
    tree = ast.parse((SRC / "determinants.py").read_text())
    fields = {"K", "D", "ints", "precision", "rows", "base"}
    read = sorted({(n.attr, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in fields})
    assert not read, f"determinants.py reads {read}"
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
