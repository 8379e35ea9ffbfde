"""Report the names a module imports and never uses.

    python tools/unused_imports.py src/wignerflow/*.py

A name is used when it is read anywhere in the module: as a name, as the
root of an attribute chain, in an annotation (quoted ones included) or in
__all__.  An __init__.py is skipped, since its imports are the package's
re-exports, and so are __future__ imports.  Prints file:line: name for
each unused import and exits 1 if there is any.  Standard library only.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation, or a name listed in __all__
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(paths: list[str]) -> int:
    found = 0
    for path in map(Path, paths):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name} imported and unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
