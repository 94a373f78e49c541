"""Count the code lines of each module of the schurfit package.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation); blank lines, comment lines and docstring lines
do not count.  A docstring is the string that opens a module, class or
function body, found with `ast`; the tokens come from `tokenize`, so a line
inside any other multi-line string counts.  Standard library only.

    python3 tools/count_code_lines.py [package directory]

prints one "<count> <module>" line per module, sorted by name, then the total,
then the runtime total: the modules that __init__.py and cli.py reach through
relative imports, found with `ast`, so nothing is imported.  A module that
only the tests import, such as the cross-checks in reference.py, counts in
the total but not in the runtime.  The directory defaults to src/schurfit
beside this script's parent.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(tree):
    """(first line, first column, last line, last column) of each docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            spans.append((first.lineno, first.col_offset, first.end_lineno, first.end_col_offset))
    return spans


def code_lines(source):
    """The number of code lines in the Python `source`."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(
            (l0, c0) <= tok.start and tok.end <= (l1, c1) for l0, c0, l1, c1 in docstrings
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def runtime_modules(sources):
    """The names in `sources` (module name -> source) that __init__ and cli
    reach through relative imports such as `from .numeric import ...` and
    `from . import regress`."""
    reached, pending = set(), ["__init__", "cli"]
    while pending:
        name = pending.pop()
        if name in reached or name not in sources:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse(sources[name])):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                pending += [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
    return reached


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "schurfit"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    counts = {name: code_lines(source) for name, source in sources.items()}
    for name, count in counts.items():
        print(f"{count:6d} {name}.py")
    print(f"{sum(counts.values()):6d} total")
    print(f"{sum(counts[name] for name in runtime_modules(sources)):6d} runtime")


if __name__ == "__main__":
    main(sys.argv)
