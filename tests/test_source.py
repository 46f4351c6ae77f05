"""Properties of the engine source itself."""

import ast
import pathlib

import decompgen

SRC = pathlib.Path(decompgen.__file__).parent


def test_internal_checks_raise_instead_of_assert():
    # `python -O` strips assert statements, which would silently drop a check
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in engine code: {found}"
