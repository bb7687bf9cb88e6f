"""List the statements of the package that no test runs.

    python3 scripts/unrun_lines.py [PYTEST ARGUMENTS ...]

Run from the root of a checkout. This runs pytest in this process, passing
its arguments through, with a ``sys.settrace`` hook that records the lines
run in frames of ``src/simplexci/``. It then prints each statement of the
package whose lines none of the tests reached, as ``path:line: text``, and
exits with pytest's status. Definitions (``def``, ``class``), imports and
docstrings are not listed: they run on import, or are no code at all.

A compound statement (``if``, ``for``, ``with`` ...) counts as run when a
line of its header runs; a simple one, when any of its lines does. Code run
in a subprocess, such as a CLI run through ``subprocess``, is not seen. The
standard library alone is used, so no coverage package is needed; tracing
makes the tests about twice as slow.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from typing import Dict, Iterable, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "simplexci")

# statements that run on import or hold no code of their own
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def _statements(tree: ast.AST) -> Iterator[ast.stmt]:
    """Every statement of ``tree`` but the skipped kinds and bare strings."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        yield node


def _lines(node: ast.stmt) -> range:
    """The lines whose running counts as running ``node``: a compound
    statement's header, up to its first nested statement, or all of a simple
    one."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(node.lineno + 1, body[0].lineno))
    return range(node.lineno, node.end_lineno + 1)


def unrun(source: str, hits: Set[int]) -> List[Tuple[int, str]]:
    """``(line, text)`` of each listed statement of the module ``source``
    that has no line in ``hits``, in line order; ``text`` is the statement's
    first line, stripped."""
    lines = source.splitlines()
    return sorted(
        (node.lineno, lines[node.lineno - 1].strip())
        for node in _statements(ast.parse(source))
        if hits.isdisjoint(_lines(node))
    )


def _trace(hits: Dict[str, Set[int]]):
    """A ``sys.settrace`` hook that adds to ``hits[path]`` each line run in
    a frame of a file under ``PACKAGE``."""
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        hits.setdefault(path, set())
        return local

    return global_


def report(hits: Dict[str, Set[int]], paths: Iterable[str]) -> List[str]:
    """The ``path:line: text`` lines of every unrun statement of ``paths``."""
    out = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        where = os.path.relpath(path, ROOT)
        out += [f"{where}:{line}: {text}" for line, text in unrun(source, hits.get(path, set()))]
    return out


def main(argv: List[str]) -> int:
    import pytest

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # the tests' subprocesses import the package too, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    hits: Dict[str, Set[int]] = {}
    hook = _trace(hits)
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    paths = [os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")]
    print("\n".join(report(hits, paths)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
