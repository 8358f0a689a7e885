"""List each public name of a package with the files that use it.

A package ``__init__`` lists its public names in a ``lazy_exports(globals(),
{module: (name, ...)})`` table.  For each name in the tables under a package
directory, this lists the files under the repository's ``src/``, ``tests/``,
``demos/`` and ``perfbench/`` that use it: those in which the name appears
as a whole word, as ``grep -lw`` finds it, leaving out the ``__init__``
files that hold the tables.  A file that defines the name at its top level
uses it only where its code reads it (a name or attribute load), not at its
definition or in a docstring.  The repository is the directory that holds
``src/``.  Only the standard library is used.

    python3 tools/surface.py src/rulelab

prints one block per name, its qualified name and then the files that use
it, and last the names that no file under ``src/`` uses.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOTS = ("src", "tests", "demos", "perfbench")


def exports(package: Path) -> tuple[list[str], set[Path]]:
    """The qualified names in the lazy export tables under ``package``, in
    file and table order, and the files that hold the tables."""
    src = package.resolve().parent
    names, tables = [], set()
    for init in sorted(package.resolve().rglob("__init__.py")):
        prefix = ".".join(init.parent.relative_to(src).parts)
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
                for table in node.args:
                    if isinstance(table, ast.Dict):
                        tables.add(init)
                        names += [f"{prefix}.{name.value}"
                                  for entry in table.values for name in entry.elts]
    return names, tables


def surface(package: Path) -> list[tuple[str, list[Path]]]:
    """Each exported name of ``package`` with the files that use it, as
    paths relative to the repository."""
    repo = package.resolve().parents[1]
    names, tables = exports(package)
    texts = {
        path: path.read_text(encoding="utf-8")
        for root in ROOTS for path in sorted((repo / root).rglob("*.py")) if path not in tables
    }
    words = {path: set(re.findall(r"\w+", text)) for path, text in texts.items()}
    code = {path: _names(text) for path, text in texts.items()}
    rows = []
    for qualified in names:
        name = qualified.rpartition(".")[2]
        rows.append((qualified, [
            path.relative_to(repo) for path in texts
            if name in words[path] and (name not in code[path][0] or name in code[path][1])
        ]))
    return rows


def _names(source: str) -> tuple[set[str], set[str]]:
    """The names ``source`` defines at its top level, and the names and
    attributes its code reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return defined, loaded


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: surface.py PACKAGE_DIRECTORY", file=sys.stderr)
        return 2
    rows = surface(Path(argv[0]))
    for qualified, users in rows:
        print(qualified)
        for path in users:
            print(f"    {path.as_posix()}")
    lonely = [qualified for qualified, users in rows if not any(p.parts[0] == "src" for p in users)]
    print(f"{len(lonely)} of {len(rows)} names have no user under src/:")
    for qualified in lonely:
        print(f"    {qualified}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
