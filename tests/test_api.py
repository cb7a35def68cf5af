"""No public API kept alive only by its tests: every top-level public function
or class of an ``lsmlab`` module is named somewhere in the package or the
benchmark harness, outside its own definition and outside ``__init__.py``
(whose re-exports keep nothing alive).  A name counts wherever it appears: as
a name, an attribute, an import, or inside a string other than a docstring
(the benchmark's tracer wraps functions by their dotted names)."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "lsmlab"

# AC-7 gates the paper's continuous regularisation; nothing in the pipeline
# calls it, so the acceptance suite is its caller.
EXEMPT = {"continuous_regularisation"}


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring nodes: prose names nothing."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def names_in(tree: ast.AST, skip: range = range(0)) -> set[str]:
    """Every identifier the module names outside its docstrings and the lines in ``skip``."""
    prose = docstrings(tree)
    found = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip or id(node) in prose:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def unused_public_names() -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [p for p in sorted((REPO / "perfbench").glob("*.py"))
                if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sources}
    named = {p: names_in(t) for p, t in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in public_definitions(tree):
            own = names_in(tree, skip=range(node.lineno, node.end_lineno + 1))
            elsewhere = any(node.name in names for p, names in named.items() if p != path)
            if node.name not in EXEMPT and node.name not in own and not elsewhere:
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []
