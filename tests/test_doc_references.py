"""The docs cite only what exists.

``README.md``, ``docs/*.md`` and the notes under ``.claude/skills`` point
readers at files by path, and at classes and functions in them as
``path.py::Name`` or ``path.py::Name::name``.  Every such reference must
name an existing file, and every name after it a class or function defined
there (a method, for the second), so that deleting or renaming a test or a
module fails here until the docs that cite it are repointed.  Likewise every
backticked ``--flag …`` they cite must be a command line that
``repro run mnist``, ``repro experiment <row>`` or ``repro worker`` accepts.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import io
import itertools
import re
from pathlib import Path

from repro import cli
from repro.experiments.runner import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        *sorted((ROOT / ".claude" / "skills").rglob("*.md"))]
REFERENCE = re.compile(r"\b((?:tests|src|benchmarks|examples)/[\w./-]+\.py)((?:::\w+)*)")
FLAGS = re.compile(r"`(--[^`]+)`")
PLACEHOLDER = re.compile(r"\$?[A-Z][A-Z_]*")
COMMANDS = (["run", "mnist"], ["experiment", sorted(EXPERIMENTS)[0]],
            ["worker", "--connect", ":7000"])


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


def _flag_citations():
    """``(doc:line, words)`` for every backticked ``--flag …`` in the docs,
    one per alternative of a ``a|b`` (or table-escaped ``a\\|b``) word."""
    for doc in DOCS:
        for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in FLAGS.finditer(line):
                words = match.group(1).replace("\\|", "|").split()
                for variant in itertools.product(*(word.split("|") for word in words)):
                    yield f"{doc.relative_to(ROOT)}:{number}", list(variant)


def _known_flags() -> set:
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {flag for parser in subcommands.choices.values()
            for action in parser._actions for flag in action.option_strings}


def _parses(words: list) -> bool:
    for command in COMMANDS:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.build_parser().parse_args([*command, *words])
        except SystemExit:
            continue
        return True
    return False


def _cited_correctly(words: list, known: set) -> bool:
    """A bare flag, or a citation with a capitalised placeholder (``N``,
    ``$TOKEN``) skipped, names options; any other citation is a command line."""
    values = [word for word in words if not PLACEHOLDER.fullmatch(word)]
    if len(values) == 1 or len(values) < len(words):
        return all(word in known for word in values if word.startswith("--"))
    return _parses(words)


def test_every_cited_cli_flag_parses():
    citations = list(_flag_citations())
    assert citations, "found no flags to check: has the pattern drifted?"
    known = _known_flags()
    broken = [f"{where}: {' '.join(words)}" for where, words in citations
              if not _cited_correctly(words, known)]
    assert not broken, "the docs cite command lines the CLI rejects:\n" + "\n".join(broken)
