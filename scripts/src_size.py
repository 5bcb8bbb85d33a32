"""Code lines of each module of ``src/funcbreak``, to track the size of the
package without counting its docstrings, comments or blank lines.

Usage, from the root of a checkout:

    python scripts/src_size.py

A code line holds a token that is not a comment, outside the docstrings of
the module, its classes and its functions as ``ast`` finds them; a string
token over several lines counts each of them. The output has one line per
module, "<code lines> <path>", then "<sum> total", as ``wc -l`` prints them.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path("src/funcbreak")
# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The code lines of a module's ``source``."""
    docstrings = set()  # (line, column) where each docstring starts
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main()
