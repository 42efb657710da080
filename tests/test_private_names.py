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
