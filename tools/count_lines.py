"""Count the lines of each module of src/lossprio: all of them (as `wc -l`
counts) and code only, without docstrings, comments and blank lines.

Usage: python tools/count_lines.py [DIR]   (DIR defaults to src/lossprio)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree) -> set:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "lossprio")
    total_all = total_code = 0
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text())
        total_all, total_code = total_all + lines, total_code + code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_all:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
