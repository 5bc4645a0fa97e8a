import ast
import inspect
import pathlib

import spinpair


def test_every_listed_name_resolves():
    missing = [name for name in spinpair.__all__ if not hasattr(spinpair, name)]
    assert not missing


def test_every_reexported_function_and_class_is_listed():
    reexported = [
        name
        for name, obj in vars(spinpair).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("spinpair.")
    ]
    assert reexported and not set(reexported) - set(spinpair.__all__)


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never reads; a dotted ``import a.b`` binds ``a``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them, which the tests above check.
    modules = sorted(pathlib.Path(spinpair.__file__).parent.glob("*.py"))
    unused = [
        entry for path in modules if path.name != "__init__.py" for entry in _unused_imports(path)
    ]
    assert len(modules) > 1 and not unused
