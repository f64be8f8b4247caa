"""Every public function of nfactor is reached by the command line, or says why not.

A public function is one in ``nfactor.__all__`` or a module-level function of
an ``nfactor.*`` module whose name has no leading underscore. Under
``sys.setprofile`` ``cli.run`` answers the 32 bundled requests, one
``--explicit-intervals`` request and one strong effect whose Newton steps
cross the span trigger, so the separation check runs; every function it
calls on the way is reached. A function it does not reach must be named in
``NOT_REACHED_BY_THE_CLI`` with its reason, or be wrapped by the benchmark's
tracer (``perfbench/tracing.py``'s ``WRAPPED``, read from its source and never
imported). A named function that the command line does reach fails, so the
list cannot go stale; and every ``WRAPPED`` entry must resolve to a callable,
so a rename cannot silently zero a per-layer metric.
"""

import ast
import importlib
import inspect
import pkgutil
import sys

import pytest

import nfactor

from test_cli import BRANCH_CASES
from test_cox import strong_effect_frame
from test_golden_reports import TESTS_DIR, bundled_requests, run_request

TRACING = TESTS_DIR.parent / "perfbench" / "tracing.py"

NOT_REACHED_BY_THE_CLI = {
    "nfactor.cli.main": "the console script; it only hands sys.argv to cli.run",
    "nfactor.data.replicate": "oracle: fit_wls on the rows repeated w times is p_at(w)",
    "nfactor.data.replicate_frame": "oracle: fit_cox on the records repeated w times is p_at(w)",
}


def public_functions() -> dict:
    """Qualified name -> function, for every public function of the package."""
    functions = {}
    for info in pkgutil.iter_modules(nfactor.__path__):
        module = importlib.import_module(f"nfactor.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_") and obj.__module__ == module.__name__:
                functions[f"{module.__name__}.{name}"] = obj
    for name in nfactor.__all__:
        obj = getattr(nfactor, name)
        if inspect.isfunction(obj):
            functions[f"{obj.__module__}.{obj.__name__}"] = obj
    return functions


def wrapped() -> tuple:
    """perfbench's (module, attribute, span) table, read from the source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


PUBLIC = public_functions()
WRAPPED = wrapped()


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Code objects of every Python function that ``cli.run`` calls on the requests."""
    folder = tmp_path_factory.mktemp("surface")
    csv, args, _ = BRANCH_CASES["explicit_intervals"]
    intervals = folder / "intervals.csv"
    intervals.write_text(csv)
    effect = strong_effect_frame(300, 8.0)  # its Newton steps reach the separation check
    strong = folder / "strong.csv"
    strong.write_text("id,t,e,x\n" + "".join(
        f"{i},{t!r},{e:d},{x!r}\n" for i, (t, e, x) in enumerate(zip(
            effect.stop.tolist(), effect.event.tolist(), effect.covariates[:, 0].tolist()))))
    requests = [*bundled_requests(), [*args, "--data", str(intervals), "--format", "json"],
                ["--model", "cox-lr", "--data", str(strong), "--time", "t", "--event", "e",
                 "--id", "id", "--covariates", "x", "--format", "json"]]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(TESTS_DIR)  # the bundled requests name their data relative to tests/
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            exits = [run_request(argv)["exit"] for argv in requests]
        finally:
            sys.setprofile(previous)
    assert set(exits) <= {0, 2} and exits[-2:] == [0, 0], exits
    return codes


def wrapped_functions() -> list:
    return [getattr(importlib.import_module(module), attr) for module, attr, _ in WRAPPED]


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_a_public_function_is_reached_or_says_why_not(reached, name):
    function = PUBLIC[name]
    if name in NOT_REACHED_BY_THE_CLI:
        assert function.__code__ not in reached, (
            f"the command line calls {name}; drop it from NOT_REACHED_BY_THE_CLI")
    elif function.__code__ not in reached:
        assert any(function is w for w in wrapped_functions()), (
            f"nothing reaches {name}: the command line does not call it, it is not "
            "an oracle named in NOT_REACHED_BY_THE_CLI and the benchmark does not "
            "wrap it; delete it")


def test_every_named_function_exists():
    assert set(NOT_REACHED_BY_THE_CLI) <= set(PUBLIC)


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in WRAPPED])
def test_every_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"perfbench wraps {module}.{attr}, which no longer exists; its metrics would read 0")

