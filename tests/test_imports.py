"""Every name that the package or its tests import is used in the importing file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/qndstab/*.py"), *ROOT.glob("tests/*.py")])


def _unused_imports(path):
    """file:line:name for each imported name that the file never reads; __all__ entries count as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}:{name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    assert ROOT / "src" / "qndstab" / "lyapunov.py" in FILES and Path(__file__).resolve() in FILES
    unused = [entry for path in FILES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
