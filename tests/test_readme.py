"""The README's Python examples run as written against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_python_examples_run(capsys):
    blocks = _python_blocks()
    assert len(blocks) == 2  # Quick start and Lower-level entry points
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert float(printed[0].split()[0]) > 0.0  # the Quick start's fitted decay rate
    assert printed[1].startswith("True ")  # report.certified at p_min 0.9
