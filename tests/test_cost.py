"""Cost guards that do not depend on the host: Python-level calls in
package frames.

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
"""

import contextlib
import io
import os
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
    "sweep-10x10-table": (SWEEP + ("--format", "table"), 308),
    "sweep-10x10-csv-extras": (SWEEP + EXTRAS + ("--format", "csv"), 621),
    "sweep-10x10-table-extras": (SWEEP + EXTRAS + ("--format", "table"), 627),
    "transition": (("transition", "--slope", "1.8", "--kappa", "1e-5"), 42),
    "dissipation": (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), 68),
    "bound": (("bound", "--slope", "1.8"), 79),
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
