import ast
from pathlib import Path

import sphmoduli


def test_every_exported_name_exists():
    assert len(set(sphmoduli.__all__)) == len(sphmoduli.__all__)
    for name in sphmoduli.__all__:
        assert hasattr(sphmoduli, name), name


def test_every_public_import_is_exported():
    # a class or function the package imports for its users is listed in
    # __all__, and a deleted one cannot linger there (see above)
    tree = ast.parse(Path(sphmoduli.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported
              if not name.startswith("_") and callable(getattr(sphmoduli, name))}
    assert public
    assert sorted(public - set(sphmoduli.__all__)) == []


def test_every_definition_is_used_outside_tests():
    # a module-level function or class of the package is reached from the
    # package or from tools/, not only from tests: code that only tests call
    # lives in tests/.  A use inside the definition itself does not count,
    # and neither do the imports and `__all__` of __init__.py.
    root = Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "sphmoduli").glob("*.py"))
    defined = {}
    used = set()
    for path in modules + sorted((root / "tools").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if own and path in modules and path.name != "__init__.py":
                defined[own] = path.name
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert defined
    assert sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in used) == []
