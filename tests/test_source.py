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


def test_no_true_division_in_engine_code():
    # every quotient goes through a field's div: `/` on two ints is a float,
    # and now that integral rationals are ints it would slip into exact data
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)]
    assert not found, f"true division in engine code: {found}"


def _import_time_nodes(tree):
    """The nodes a module runs when it is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_sympy_import():
    # sympy costs more than the rest of the engine to import and only the
    # factorizations over Q and Q(vars) need it: they import it themselves
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] == "sympy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level sympy import in engine code: {found}"


def test_no_engine_function_takes_a_seed():
    # reports are deterministic: the chop draws from one fixed generator, so
    # no engine function takes a seed or a budget of attempts; the corpus
    # builders are exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "corpus.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if {"seed", "attempts"} & set(names):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"engine functions that take a seed or attempts: {found}"
