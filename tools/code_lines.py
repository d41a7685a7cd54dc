"""Count the code lines of each `cantorshift` module.

A line counts when it holds a token that is not a comment and lies
outside the module, class and function docstrings.  Blank lines,
comment lines and docstring lines do not count; every line of a
multi-line statement that holds a token does.

Usage: python tools/code_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to src/cantorshift beside this script.  The output is
one "<count> <module>" line per module, then "<total> total".
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree) -> set[int]:
    """The line numbers the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent / "src" / "cantorshift"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
