"""Every function, class, method, module-level constant and attribute set
on ``self`` in src/qslab has a reader in src/qslab.

A definition that only tests call belongs with the tests (see
tests/oracles.py), so the package keeps one implementation of each
operation, and only code that a command reaches; a constant that nothing
reads, such as an alias left behind for a retired name, goes, and so does an
attribute that every instance computes and nothing reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qslab"

# name -> why it stays without a reader in src/qslab
ALLOWED = {
    "enumerate_alcove": "perfbench/tracing.py hooks it through its LAYERS table",
    # the roots group reads the root table's unit heights instead
    "lee_witness": "perfbench/tracing.py hooks it through its LAYERS table",
}


def _definitions_and_references():
    """Functions and classes, upper-case module-level names, attributes
    assigned on ``self``, every name that src/qslab reads, as a variable or
    as an attribute, and every attribute name that it loads."""
    defined: dict[str, str] = {}
    constants: dict[str, str] = {}
    attributes: dict[str, str] = {}
    referenced: set[str] = set()
    loaded: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for node in (n for t in targets for n in ast.walk(t)):
                    if isinstance(node, ast.Name) and node.id.isupper():
                        constants.setdefault(node.id, f"{path.name}:{stmt.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    attributes.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and path.name != "__init__.py"
                  and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined, constants, attributes, referenced, loaded


def test_every_definition_in_src_has_a_reader_in_src():
    defined, _, _, referenced, _ = _definitions_and_references()
    unread = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in referenced and name not in ALLOWED)
    assert not unread, "defined in src/qslab but read only outside it: " + ", ".join(unread)
    # an entry leaves the allowlist once its definition goes or gains a reader
    for name in ALLOWED:
        assert name in defined and name not in referenced, name


def test_every_module_constant_in_src_has_a_reader_in_src():
    _, constants, _, referenced, _ = _definitions_and_references()
    assert "REL_GAP_TOL" in constants and "TYPE_DATA" in constants  # the scan finds them
    unread = sorted(f"{name} ({where})" for name, where in constants.items()
                    if name not in referenced)
    assert not unread, "module constants that src/qslab never reads: " + ", ".join(unread)


def test_every_attribute_set_on_self_in_src_has_a_reader_in_src():
    _, _, attributes, _, loaded = _definitions_and_references()
    assert "shifted_level" in attributes and "residual_max" in attributes  # the scan finds them
    unread = sorted(f"{name} ({where})" for name, where in attributes.items()
                    if name not in loaded)
    assert not unread, "attributes set on self that src/qslab never loads: " + ", ".join(unread)
