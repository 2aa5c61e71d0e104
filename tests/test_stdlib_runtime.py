"""The runtime imports only the standard library: every absolute import in
the package names a standard-library module at its top level."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "meadows"


def _absolute_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    outside = {(path.name, name) for path in sources for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
