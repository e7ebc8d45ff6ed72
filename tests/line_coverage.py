"""Print every function-body statement of `htapsim` that the tests never run.

    python3 tests/line_coverage.py [pytest args...]

Runs the tests in this process under a `sys.settrace` hook, tier-1 unless
pytest arguments are given, then prints one `file:line: statement` line per
statement inside a function of `src/htapsim` that no test ran, and a last
line with their count.  Statements are read with `ast`, from the source as
it was before the tests started, so a module edited during the run is still
reported against the lines that ran:

- a docstring is not a statement, and neither are `global` and `nonlocal`;
- a compound statement (`if`, `for`, `while`, `with`, ...) counts as run
  when its header runs; a `try` counts as run when its body starts;
- nested functions are listed with their own statements.

Code run only in a subprocess (the CLI and hash-seed tests) is not seen.
Each code object stops being traced once all its lines have run; the
tests still take four to five times their usual time.  Only the standard
library (and pytest, to run the tests) is used; pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "htapsim"
sys.path.insert(0, str(ROOT / "src"))

NO_CODE = (ast.Global, ast.Nonlocal)


def _own_lines(node: ast.stmt) -> range:
    """The lines of `node` outside the statements nested in it."""
    children = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    end = min((c.lineno for c in children), default=node.end_lineno + 1)
    return range(node.lineno, max(end, node.lineno + 1))


def _statements(body: list[ast.stmt], out: list) -> None:
    """Append (statement, lines that mark it run) for `body`, recursively."""
    for node in body:
        if isinstance(node, NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                continue  # a docstring: a bare string compiles to nothing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node, range(node.lineno, node.lineno + 1)))
            _functions(node, out)
            continue
        if isinstance(node, ast.Try):
            out.append((node, _own_lines(node.body[0])))
        else:
            out.append((node, _own_lines(node)))
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.stmt):
                    _statements([child], out)
                else:  # an except handler or a match case
                    _statements(child.body, out)


def _functions(node: ast.AST, out: list) -> None:
    """Append the statements of every function body under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _statements(child.body, out)
        elif isinstance(child, ast.ClassDef):
            _functions(child, out)


def function_statements(source: str, filename: str) -> list:
    """(statement, lines that mark it run) for each function-body statement
    of the module `source`, read from `filename`, in line order."""
    out: list = []
    _functions(ast.parse(source, filename), out)
    return sorted(out, key=lambda item: item[0].lineno)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `pytest_args` and return its exit code and the lines
    of `src/htapsim` that ran, by file name."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)
    remaining: dict = {}  # code object -> its lines not yet seen to run

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code.co_filename].add(frame.f_lineno)
            left = remaining[code]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        left = remaining.get(code)
        if left is None:
            left = {line for _, _, line in code.co_lines() if line}
            if len(left) > 1:  # the `def` line's own instructions make no line event
                left.discard(code.co_firstlineno)
            remaining[code] = left
        return local if left else None

    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    tier1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
    modules = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        modules.append((path, source.splitlines(), function_statements(source, str(path))))
    status, ran = run_traced(argv or tier1)
    missed = 0
    for path, source, statements in modules:
        lines = ran.get(str(path), set())
        for node, marks in statements:
            if lines.isdisjoint(marks):
                missed += 1
                text = source[node.lineno - 1].strip()
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    print(f"{missed} function-body statements never run (pytest exit {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
