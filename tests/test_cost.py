"""Cost guards that do not depend on the host: Python-level calls in
package frames, and the modules that a point query loads.

A ``sys.setprofile`` hook counts the ``call`` events whose code file
lies under the package directory, for one CLI call in a process that has
already run it once (the parser, the default context and the tables it
has evaluated are built), and per sweep cell as the difference of two
grid sizes. The count is the same on every host, so a change that adds
per-cell or per-call work shows here even when a timing could not tell
it from noise. Each budget is the count recorded on CPython 3.11.
Python 3.12 inlines list comprehensions (PEP 709), which are frames
before it, so it reads at most the budget. A change that raises a count
raises its budget and records the old value, the new one and the reason
in CHANGES.md; a change that lowers a count lowers its budget with it.

The module sets are read in a new interpreter under ``python -S``, so
that no site-packages ``.pth`` file loads a module before the package:
the modules in ``sys.modules`` after the benchmark's setup probe
(``import zpfcross.cli``, ``build_parser()``, ``CosmologyContext.default()``),
and after ``import zpfcross.cli`` and one well-formed ``transition`` or
``constants`` point query. The package loads a module on first use, so
each set of the package's own modules is pinned exactly. The total of
the ``transition`` query is pinned as a ceiling per Python version:
measured on CPython 3.11.7, and on 3.10 and 3.12 the earlier measured
totals of 3.10.13 and 3.12.1 less the one package module that the query
no longer loads (its standard-library modules did not change on 3.11).
"""

import ast
import contextlib
import io
import os
import subprocess
import sys

import pytest

import zpfcross
from zpfcross.cli import main

PACKAGE_DIR = os.path.dirname(zpfcross.__file__) + os.sep


def sweep(n):
    """An n x n sweep: slopes from 1.1 to below 2.9, kappas 1 to 1e-(n-1)."""
    slopes = ",".join(str(1.1 + 1.8 / n * i) for i in range(n))
    kappas = ",".join(f"1e-{i}" for i in range(n))
    return ("sweep", "--slopes", slopes, "--kappas", kappas)


SWEEP = sweep(10)
EXTRAS = ("--outputs", "epsilon,N,Ns")

# name: (argv, budget)
BUDGETS = {
    "sweep-10x10-csv": (SWEEP + ("--format", "csv"), 302),
    "sweep-10x10-table": (SWEEP + ("--format", "table"), 304),
    "sweep-10x10-csv-extras": (SWEEP + EXTRAS + ("--format", "csv"), 621),
    "sweep-10x10-table-extras": (SWEEP + EXTRAS + ("--format", "table"), 623),
    "transition": (("transition", "--slope", "1.8", "--kappa", "1e-5"), 29),
    "dissipation": (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), 53),
    "bound": (("bound", "--slope", "1.8"), 67),
}

# name: (trailing flags, budget of calls per cell): a 20x20 sweep less a
# 10x10 one, over the 300 cells between them (their 10 more slopes and
# kappas included)
PER_CELL_BUDGETS = {
    "csv": (("--format", "csv"), 1.57),
    "table": (("--format", "table"), 1.57),
    "csv-extras": (EXTRAS + ("--format", "csv"), 4.57),
    "table-extras": (EXTRAS + ("--format", "table"), 4.57),
}


def package_calls(argv):
    """Calls in package frames made by ``main(argv)`` in a warm process."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0  # warm-up
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            main(list(argv))
        finally:
            sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("name", BUDGETS)
def test_package_calls_within_budget(name):
    argv, budget = BUDGETS[name]
    assert package_calls(argv) <= budget


@pytest.mark.parametrize("name", PER_CELL_BUDGETS)
def test_sweep_calls_per_cell_within_budget(name):
    flags, budget = PER_CELL_BUDGETS[name]
    per_cell = (package_calls(sweep(20) + flags) - package_calls(sweep(10) + flags)) / 300
    assert per_cell <= budget


def test_sweep_builds_no_table_and_does_no_dimension_operation(monkeypatch):
    # a slope composes lambda0's budget vector from exponents read at
    # import, and a cell builds nothing, with or without the extras
    from zpfcross import constants, quantity
    from zpfcross.report import SweepSpec, run_sweep

    ctx = constants.CosmologyContext.default()
    calls = []
    monkeypatch.setattr(constants, "_table", lambda *args: calls.append("_table"))
    for name in ("__mul__", "__truediv__", "__pow__"):
        monkeypatch.setattr(quantity.Dimension, name, lambda *args, _n=name: calls.append(_n))
    for kappas in ((1.0,), tuple(10.0 ** -i for i in range(40))):
        for outputs in ((), ("epsilon", "N", "Ns")):
            run_sweep(SweepSpec((1.3, 2.2), kappas, outputs, "computed"), ctx)
    assert calls == []


POINT_QUERY = "transition --slope 1.8 --kappa 1e-5"
# what importing the CLI, building its parser and the default context load
CLI_MODULES = {"zpfcross", "zpfcross.cli", "zpfcross.constants", "zpfcross.errors",
               "zpfcross.formatting", "zpfcross.quantity"}
# name: (the query that MODULES_SCRIPT runs, None for SETUP_SCRIPT, and
# the package modules that it leaves loaded)
PACKAGE_MODULES = {
    "setup-probe": (None, CLI_MODULES),
    "constants": ("constants", CLI_MODULES),
    "transition": (POINT_QUERY, CLI_MODULES | {"zpfcross.spectra", "zpfcross.transition"}),
}
# (major, minor): ceiling on len(sys.modules) after POINT_QUERY; 3.10 has
# no _typing or re._parser but sre_parse and friends; 3.13.0 reads 65, 3.13.13 66
MODULE_CEILINGS = {(3, 10): 65, (3, 11): 67, (3, 12): 67, (3, 13): 66}
NOT_LOADED = ("numpy", "fractions", "decimal", "dataclasses", "inspect", "pathlib", "shutil")


# prints sys.modules, as a dict of each name to its file or None, after
# ``import zpfcross.cli`` and the query in argv[1]; only the names that the
# queries in argv[2:] add, if any are given
MODULES_SCRIPT = """\
import contextlib, io, sys
from zpfcross.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1].split()) == 0
    base = set(sys.modules) if sys.argv[2:] else set()
    for argv in sys.argv[2:]:
        assert main(argv.split()) == 0
print({name: getattr(module, "__file__", None)
       for name, module in list(sys.modules.items()) if name not in base})
"""

# the same, after the benchmark's setup probe (bench/worker.py SETUP_CODE)
SETUP_SCRIPT = """\
import sys
import zpfcross.cli
from zpfcross.constants import CosmologyContext
zpfcross.cli.build_parser()
CosmologyContext.default()
print({name: getattr(module, "__file__", None) for name, module in list(sys.modules.items())})
"""


def loaded_modules(*queries, flags=(), script=MODULES_SCRIPT):
    """``script`` over ``queries`` in a new interpreter started with
    ``flags``, importing zpfcross from the tested tree."""
    src = os.path.dirname(os.path.dirname(zpfcross.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *flags, "-c", script, *queries],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_package_module_set(name):
    query, expected = PACKAGE_MODULES[name]
    modules = (loaded_modules(flags=("-S",), script=SETUP_SCRIPT) if query is None
               else loaded_modules(query, flags=("-S",)))
    assert {module for module in modules if module.split(".")[0] == "zpfcross"} == expected


def test_point_query_module_set():
    modules = loaded_modules(POINT_QUERY, flags=("-S",))
    assert len(modules) <= MODULE_CEILINGS.get(sys.version_info[:2],
                                               max(MODULE_CEILINGS.values()))
    assert not set(NOT_LOADED) & set(modules)


def test_monte_carlo_adds_numpy_and_no_other_package():
    # without -S, so that numpy is found where it is installed. Every module
    # the --mc query adds is numpy's or the standard library's, or has no
    # file (built in, or registered by numpy's compiled extensions)
    modules = loaded_modules(POINT_QUERY, "transition --slope 1.8 --mc 2000")
    numpy_dir = os.path.dirname(modules["numpy"]) + os.sep
    assert {name for name, path in modules.items()
            if path is not None and not path.startswith(numpy_dir)
            and name.split(".")[0] not in sys.stdlib_module_names} == set()
