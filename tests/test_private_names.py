"""Every module-level private function or class in the package is used somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qndstab"


def _orphans():
    """module:line:name for each module-level private def or class that src/ never references outside its own body."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    refs = {}  # name -> ids of the Name and Attribute nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, set()).add(id(node))
    orphans = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                own = {id(inner) for inner in ast.walk(node)}
                if not refs.get(node.name, set()) - own:
                    orphans.append(f"{path.name}:{node.lineno}:{node.name}")
    return orphans


def test_every_private_helper_is_used():
    assert len(list(SRC.glob("*.py"))) > 1
    orphans = _orphans()
    assert not orphans, "private helpers that src/ never uses:\n" + "\n".join(orphans)


def test_every_conftest_helper_is_used():
    """Every module-level function or class of tests/conftest.py that is no fixture or pytest hook is named by a test module."""
    tests = Path(__file__).resolve().parent
    helpers = [
        node.name
        for node in ast.parse((tests / "conftest.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list and not node.name.startswith("pytest_")
    ]
    used = set()
    for path in tests.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert helpers, "no conftest helper found"
    assert not set(helpers) - used, f"conftest helpers that no test module uses: {sorted(set(helpers) - used)}"
