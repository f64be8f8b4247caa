"""The oracles share no code with the package they check.

``tests/oracles.py`` may import ``nfactor.errors``, whose exception types the
frame oracles raise, and nothing else of ``nfactor``: an oracle that called
the package would agree with it by construction.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
ALLOWED = {"nfactor.errors"}


def package_imports(source: str) -> list:
    """Every ``nfactor`` module that ``source`` imports, anywhere in it."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "nfactor":
            modules += [f"nfactor.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [m for m in modules if m == "nfactor" or m.startswith("nfactor.")]


def test_the_rule_sees_every_import_form():
    source = ("import nfactor\nimport nfactor.data as d\nfrom nfactor import cox, errors\n"
              "from nfactor.errors import EmptyFile\ndef f():\n    from nfactor.kernels import score\n")
    assert sorted(package_imports(source)) == [
        "nfactor", "nfactor.cox", "nfactor.data", "nfactor.errors", "nfactor.errors",
        "nfactor.kernels"]


def test_oracles_import_only_the_error_types():
    imported = package_imports(ORACLES.read_text())
    assert imported and set(imported) <= ALLOWED, imported
