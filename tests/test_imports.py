"""Imports: every imported name is used, and importing the CLI loads no process pool."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a multi-worker campaign imports the pool, so single-worker runs and certify never load multiprocessing."""
    code = "import sys, qndstab.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
