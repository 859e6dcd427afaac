"""Every function, class and method in src/qslab has a reader in src/qslab.

A definition that only tests call belongs with the tests (see
tests/oracles.py), so the package keeps one implementation of each
operation, and only code that a command reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qslab"

# name -> why it stays without a reader in src/qslab
ALLOWED = {
    "enumerate_alcove": "perfbench/tracing.py hooks it through its LAYERS table",
}


def _definitions_and_references():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.name != "__init__.py"
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined, referenced


def test_every_definition_in_src_has_a_reader_in_src():
    defined, referenced = _definitions_and_references()
    unread = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in referenced and name not in ALLOWED)
    assert not unread, "defined in src/qslab but read only outside it: " + ", ".join(unread)
    # an entry leaves the allowlist once its definition goes or gains a reader
    for name in ALLOWED:
        assert name in defined and name not in referenced, name
