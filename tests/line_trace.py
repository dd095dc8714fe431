"""List the statements of src/ that no tier-1 test runs.

    python tests/line_trace.py [pytest arguments]

Runs the test suite in this process under sys.settrace, recording the
lines executed in the package's own files, then prints every executable
statement of src/ that never ran, as path:line and its source, and their
count.  Docstrings are not statements here, nor are `global` and
`nonlocal`, which run no code.  Code that only subprocesses run (the
tests that launch the CLI afresh) counts as not run.  No coverage package
is needed.  The file has no test_ prefix, so pytest does not collect it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def statements(path: Path) -> dict[int, str]:
    """{line: source} of the first line of each executable statement."""
    text = path.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(id(first))
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def first_lines(node: ast.stmt) -> set[int]:
    # a decorated definition runs from its first decorator's line
    return {node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))}


def main(argv: list[str]) -> int:
    prefix = str(SRC) + "/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorated = {node.lineno: first_lines(node) for node in ast.walk(tree)
                     if isinstance(node, ast.stmt)}
        for line, source in sorted(statements(path).items()):
            if not any((str(path), seen) in ran for seen in decorated.get(line, {line})):
                missed.append(f"{path.relative_to(ROOT)}:{line}: {source}")
    print("\n".join(missed))
    print(f"{len(missed)} statements of src/ not run (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
