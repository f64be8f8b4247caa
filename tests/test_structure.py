"""Two structural rules, read from the AST of every ``nfactor`` module.

Only ``kernels.py`` reads the Cox record runs. The risk-set layout's run
format (``entry <= k < leave``, with ``events`` and ``first`` grouping the
event records by time) is read by the kernels alone, so a change to the
format or to the kernel that reads it is an edit to one module.

Every module imports only numpy, its own package and a few standard
modules. Imports dominate a fresh CLI process's start-up, so a new one,
even one that ``import`` hides inside a function, fails here.
"""

import ast

import pytest

from test_golden_reports import TESTS_DIR

SOURCES = sorted((TESTS_DIR.parent / "src" / "nfactor").glob("*.py"))
RUN_FIELDS = {"entry", "leave", "first", "events"}
ALLOWED_IMPORTS = {"numpy", "__future__", "argparse", "array", "csv", "dataclasses",
                   "functools", "json", "math", "sys"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_kernels_reads_the_record_runs(path):
    reads = sorted({f"line {node.lineno}: .{node.attr}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and node.attr in RUN_FIELDS})
    assert path.name == "kernels.py" or not reads, reads


def imported_modules(tree):
    """(line, top-level name) of each absolute import in ``tree``; relative ones are the package's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_listed_standard_modules(path):
    extra = sorted(f"line {line}: {name}"
                   for line, name in imported_modules(ast.parse(path.read_text()))
                   if name not in ALLOWED_IMPORTS)
    assert not extra, extra
