"""Print physical and code lines per module of src/nseries, and the total.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (a string literal that opens a module, class or function body).

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nseries"
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(source.splitlines()), len(code)


def main() -> None:
    total_physical = total_code = 0
    print(f"{'module':<22}{'physical':>9}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        physical, code = count(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:<22}{physical:>9}{code:>7}")
    print(f"{'total':<22}{total_physical:>9}{total_code:>7}")


if __name__ == "__main__":
    main()
