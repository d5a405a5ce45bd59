"""Count the code lines of Python files.

    python3 tools/loc.py PATH...

A code line is a line that holds a token other than a comment, NL,
NEWLINE, INDENT, DEDENT or ENDMARKER; a token that spans lines (a
multi-line string) makes each of its lines a code line. Module, class and
function docstrings are not code. A PATH that is a directory stands for
the .py files under it. Prints one `count path` line per file, then
`count total`.
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The lines of the module, class and function docstrings in source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        documented = isinstance(node, DOCUMENTED)
        if documented and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in source."""
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def python_files(paths):
    """The .py files named by paths, directories expanded, in order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: loc.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
