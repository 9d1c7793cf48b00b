"""Run the tier-1 tests in this process under `sys.settrace` and print every
statement of src/nseries that never ran.

A statement is any `ast.stmt` except defs, classes, imports, docstrings,
`global`/`nonlocal` and `try` headers (the statements of a `try` body are
counted themselves).  It ran when some line of its header got a line event:
all its lines for a simple statement, the lines before its body for a
compound one.  Each unreached statement is printed as `path:line: source`,
and a count goes to stderr.  The exit code is pytest's if a test failed, else
1 if any statement besides a module's `if __name__ == "__main__":` block
(only cli.py has one) never ran, else 0.  Arguments are passed on to pytest;
the default runs the tier-1 suite quietly.  Tracing makes the suite several
times slower than a plain run.

    python3 tools/line_trace.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nseries"
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
        ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


def statements(tree: ast.Module):
    """(statement, its header lines, inside a main guard) for each counted statement."""
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None}
    guarded = {id(sub) for node in tree.body if _is_main_guard(node) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, SKIP) and id(node) not in docs:
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            yield node, range(node.lineno, max(node.lineno, last) + 1), id(node) in guarded


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines of each src/nseries file that ran."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = hits.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    left = blocking = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = hits.get(str(path), set())
        unreached = [(node, guarded) for node, span, guarded in statements(ast.parse(source))
                     if not seen.intersection(span)]
        for node, guarded in sorted(unreached, key=lambda item: item[0].lineno):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
            left += 1
            blocking += not guarded
    print(f"{left} unreached statement(s), {blocking} outside a main guard", file=sys.stderr)
    if code:
        return code
    return 1 if blocking else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
