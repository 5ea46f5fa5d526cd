"""Properties of the package source itself, read from its syntax trees."""

import ast
import sys
from pathlib import Path

import foldline

SOURCE = Path(foldline.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_every_input_limit_is_documented():
    """Each module-level ``*_LIMIT`` constant is named in the README as
    ``module.NAME``, where its users look for the bounds on their inputs."""
    readme = README.read_text(encoding="utf-8")
    limits = [
        f"{path.stem}.{target.id}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_LIMIT")
    ]
    assert len(limits) >= 7
    assert [name for name in limits if f"`{name}`" not in readme] == []


def _foreign_imports(tree):
    """Absolute imports of modules that are neither foldline nor stdlib."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"foldline"}
    ]


def test_runtime_needs_only_the_standard_library():
    foreign = {
        str(path.relative_to(SOURCE)): _foreign_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SOURCE.rglob("*.py"))
    }
    assert sum(map(len, foreign.values())) == 0, foreign
    planted = ast.parse("import json\nfrom . import weyl\nimport hypothesis\n")
    assert _foreign_imports(planted) == ["hypothesis"]
