"""List the statements of src/ that no tier-1 test, or no CLI call, runs.

    python tests/line_trace.py [pytest arguments]
    python tests/line_trace.py --cli

Runs the test suite in this process under sys.settrace, recording the
lines executed in the package's own files, then prints every executable
statement of src/ that never ran, as path:line and its source, and their
count.  With --cli it runs cli.main in process, in place of the suite,
over every argv of tests/golden_cli.json and the census's draws
(test_census.draws), so that what it lists is code no CLI call reaches.
Docstrings are not statements here, nor are `global` and `nonlocal`,
which run no code.  Code that only subprocesses run (the tests that
launch the CLI afresh) counts as not run.  No coverage package is
needed.  The file has no test_ prefix, so pytest does not collect it.
"""

import ast
import contextlib
import io
import json
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


def run_cli_calls() -> int:
    """Run every golden argv and census draw through cli.main in process,
    its output discarded; 0, as the calls' exit codes are the golden
    file's business.  The package is imported here, under the trace, so
    that its import-time statements count, and nothing that imports scipy
    is, so that pdm loads its LAPACK wrappers as a fresh CLI call does."""
    from su11metric.cli import main
    from test_census import draws

    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in [r["argv"] for r in golden] + [list(argv) for argv, _, _ in draws()]:
            main(argv)
    return 0


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
        code = (run_cli_calls() if argv == ["--cli"] else
                pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv]))
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
    print(f"{len(missed)} statements of src/ not run "
          f"({'by a CLI call' if argv == ['--cli'] else f'pytest exit {int(code)}'})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
