"""Properties of the package source itself, read from its syntax trees."""

import ast
from pathlib import Path

import foldline

SOURCE = Path(foldline.__file__).parent


def _is_lru_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def _finite_maxsize(decorator, constants):
    """True iff the decorator states an int maxsize (bare @lru_cache and
    @cache do not)."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "maxsize":
            value = keyword.value
            if isinstance(value, ast.Name):
                value = constants.get(value.id)
            return isinstance(value, ast.Constant) and isinstance(value.value, int)
    return False


def test_caches_are_bounded_and_no_assert_guards():
    unbounded, asserts = set(), []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                asserts.append((path.name, node.lineno))  # `python -O` strips them
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    if _is_lru_cache(decorator) and not _finite_maxsize(decorator, constants):
                        unbounded.add((path.name, node.name))
    assert unbounded == set()
    assert asserts == []
