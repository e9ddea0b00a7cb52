"""Package-wide properties: standard-library imports only, every
import used, no exit handler, and the benchmark tracer still finds and
wraps every layer it patches."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noninv"


def test_imports_are_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {name}"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    # __init__.py imports to re-export; __future__ imports are flags
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"unused: {sorted(imported - used)}"


def exit_hooks(tree) -> list[str]:
    """Every ``atexit`` import and ``weakref.finalize`` use in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "atexit"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "atexit":
                found.append("atexit")
            elif node.module == "weakref":
                found += ["weakref.finalize" for a in node.names
                          if a.name == "finalize"]
        elif (isinstance(node, ast.Attribute) and node.attr == "finalize"
              and isinstance(node.value, ast.Name)
              and node.value.id == "weakref"):
            found.append("weakref.finalize")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_exit_hooks(path):
    # cli.main ends the process with os._exit, which runs no atexit
    # handler and no weakref finalizer
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert exit_hooks(tree) == [], path.name


def test_exit_hooks_are_found():
    source = ("import atexit\nfrom atexit import register\n"
              "import weakref\nweakref.finalize(obj, print)\n"
              "from weakref import finalize\n")
    assert exit_hooks(ast.parse(source)) == [
        "atexit", "atexit", "weakref.finalize", "weakref.finalize"]


# dataclasses pulls in the rest; together they cost a cold call ~10 ms
HEAVY_MODULES = ["dataclasses", "inspect", "ast", "dis", "tokenize"]


@pytest.mark.parametrize("module", ["noninv", "noninv.cli"])
def test_import_leaves_out_heavy_modules(module):
    # a fresh interpreter, as this one has imported ast itself; modules
    # that site loaded before the import are not the package's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; before = set(sys.modules); import {module}; "
         f"new = set(sys.modules) - before; "
         f"print(sorted(new.intersection({HEAVY_MODULES!r})))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture(scope="module")
def function_files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tracer")
    outer, inner = workdir / "outer.fn", workdir / "inner.json"
    outer.write_text("4 4 : 1 1 2 3\n")
    inner.write_text('{"domain": 4, "codomain": 4, "images": [0, 2, 2, 3]}')
    return workdir, str(outer), str(inner)


# one small call per command family, and layers it must reach
TRACED_CALLS = [
    (["verify", "chain", "--sizes", "2,2,2"],
     ["oracle.brute_chain", "oracle.nested_chain", "combinatorics.multinomial"]),
    (["verify", "degq", "--n", "3", "--m", "3", "--qmax", "3"],
     ["oracle.brute_degq", "oracle.power_sum"]),
    (["simulate", "chain", "--sizes", "3,3", "--samples", "50", "--seed", "1"],
     ["montecarlo.estimate", "montecarlo.chain_block", "closed_form"]),
    (["simulate", "maxfiber", "--n", "5", "--samples", "50", "--seed", "1"],
     ["montecarlo.estimate", "montecarlo.maxfiber_block"]),
    (["expected", "--sizes", "2,2"], ["closed_form"]),
    # closed forms and the stirling command read Stirling rows only
    # through StirlingTable.ensure, which the tracer patches at the class
    (["expected-q", "--n", "3", "--m", "3", "--q", "4"],
     ["closed_form", "combinatorics.stirling_table"]),
    (["verify", "corollary", "--qmax", "5"],
     ["closed_form", "combinatorics.stirling_table", "oracle.power_sum"]),
    (["stirling", "--rows", "5"], ["combinatorics.stirling_table"]),
    (["bounds", "OUTER", "INNER"],
     ["functions.load", "functions.compose", "bounds.report"]),
    (["bounds", "--exhaustive", "--n", "2"], ["oracle.enumerate_functions"]),
    (["deg", "--file", "OUTER"], ["functions.load", "functions.degree"]),
    (["deg", "--file", "INNER"], ["functions.load", "functions.degree"]),
]


# a call is named by its command and first word; deg calls by their file
CALL_IDS = [" ".join(argv[:2] if argv[0] != "deg" else argv[::2])
            for argv, _ in TRACED_CALLS]


def traced_stats(function_files, argv) -> dict:
    """Per-layer counters of one traced call that must exit 0."""
    workdir, outer, inner = function_files
    argv = [{"OUTER": outer, "INNER": inner}.get(a, a) for a in argv]
    trace = workdir / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())["stats"]


@pytest.mark.parametrize("argv,layers", TRACED_CALLS, ids=CALL_IDS)
def test_tracer_reaches_every_layer(function_files, argv, layers):
    stats = traced_stats(function_files, argv)
    for layer in layers:
        assert stats.get(layer, [0])[0] > 0, f"{layer} not reached"


def test_tracer_counts_one_identity_sum_per_q(function_files):
    # the tracer wraps noninv.cli.stirling_identity_sum, so the sweep
    # must look it up once per q: 7 identity sums and, with the default
    # --nmax 5, 5 * 6 power-sum forms
    stats = traced_stats(function_files,
                         ["verify", "corollary", "--qmax", "7"])
    assert stats["closed_form"][0] == 7 + 5 * 6
