"""Only ``kernels.py`` reads the Cox record runs.

The risk-set layout's run format (``entry <= k < leave``, with ``events``
and ``first`` grouping the event records by time) is read by the kernels
alone, so a change to the format or to the kernel that reads it is an edit
to one module. The test walks the source of every ``nfactor`` module and
fails on any other module that reads one of those attributes.
"""

import ast

import pytest

from test_golden_reports import TESTS_DIR

SOURCES = sorted((TESTS_DIR.parent / "src" / "nfactor").glob("*.py"))
RUN_FIELDS = {"entry", "leave", "first", "events"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_kernels_reads_the_record_runs(path):
    reads = sorted({f"line {node.lineno}: .{node.attr}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and node.attr in RUN_FIELDS})
    assert path.name == "kernels.py" or not reads, reads
