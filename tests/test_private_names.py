"""Every private helper of the package and of conftest is used, and every exported name has a user."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qndstab"


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


def test_every_exported_name_has_a_user():
    """Every name in a module's __all__ is named by a README code span, another package module or the console script."""
    spans = re.findall(r"```.*?```|`[^`]+`", (ROOT / "README.md").read_text(), flags=re.S)
    readme = set(re.findall(r"\w+", "\n".join(spans)))
    # (module, name) pairs: the [project.scripts] entry points and every from-import in the package
    used = set(re.findall(r'^\w+ = "qndstab\.(\w+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), flags=re.M))
    exported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                used.update((node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported += [(path.stem, name) for name in ast.literal_eval(node.value)]
    unused = [f"{module}:{name}" for module, name in exported if name not in readme and (module, name) not in used]
    assert exported and ("cli", "main") in used
    assert not unused, "exported names that no README code span, other module or console script uses:\n" + "\n".join(unused)
