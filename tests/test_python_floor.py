"""Every Python file parses under the grammar of the oldest supported Python.

CI runs the suite on 3.10 too, but this catches newer syntax on any interpreter.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)


def test_floor_matches_requires_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_every_source_file_parses_at_the_floor():
    failures = []
    for folder in ("src", "tests", "perfbench", "scripts"):
        paths = sorted((ROOT / folder).rglob("*.py"))
        assert paths, folder
        for path in paths:
            try:
                ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
            except SyntaxError as exc:
                failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
