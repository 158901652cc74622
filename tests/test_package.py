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
