"""The docs cite only what exists.

``README.md``, ``docs/*.md`` and the notes under ``.claude/skills`` point
readers at files by path, and at classes and functions in them as
``path.py::Name`` or ``path.py::Name::name``.  Every such reference must
name an existing file, and every name after it a class or function defined
there (a method, for the second), so that deleting or renaming a test or a
module fails here until the docs that cite it are repointed.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        *sorted((ROOT / ".claude" / "skills").rglob("*.md"))]
REFERENCE = re.compile(r"\b((?:tests|src|benchmarks|examples)/[\w./-]+\.py)((?:::\w+)*)")


def _references():
    """``(doc:line, path, [names])`` for every reference in the docs."""
    for doc in DOCS:
        for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in REFERENCE.finditer(line):
                yield (f"{doc.relative_to(ROOT)}:{number}", match.group(1),
                       match.group(2).split("::")[1:])


@functools.lru_cache(maxsize=None)
def _module(path: str):
    file = ROOT / path
    return ast.parse(file.read_text(encoding="utf-8")).body if file.is_file() else None


def _resolves(path: str, names: list) -> bool:
    scope = _module(path)
    if scope is None:
        return False
    for name in names:
        found = [node for node in scope if getattr(node, "name", None) == name and isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
        if not found:
            return False
        scope = found[0].body
    return True


def test_every_cited_file_class_and_function_exists():
    references = list(_references())
    assert references, "found no references to check: has the pattern drifted?"
    broken = [f"{where}: {path}{''.join('::' + name for name in names)}"
              for where, path, names in references if not _resolves(path, names)]
    assert not broken, "the docs cite what does not exist:\n" + "\n".join(broken)
