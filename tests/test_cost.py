"""Cost guards that do not depend on the host: Python-level calls in
package frames.

A ``sys.setprofile`` hook counts the ``call`` events whose code file
lies under the package directory, for one CLI call in a process that has
already run it once (the parser and the default context are built). The
count is the same on every host, so a change that adds per-cell or
per-call work shows here even when a timing could not tell it from
noise. Each budget is the count recorded on CPython 3.11. Python 3.12
inlines list comprehensions (PEP 709), which are frames before it, so it
reads at most the budget. A change that raises a count raises its
budget and records the old value, the new one and the reason in
CHANGES.md; a change that lowers a count lowers its budget with it.
"""

import contextlib
import io
import os
import sys

import pytest

import zpfcross
from zpfcross.cli import main

PACKAGE_DIR = os.path.dirname(zpfcross.__file__) + os.sep

SLOPES = ",".join(str(1.1 + 0.18 * i) for i in range(10))
KAPPAS = ",".join(f"1e-{i}" for i in range(10))
SWEEP = ("sweep", "--slopes", SLOPES, "--kappas", KAPPAS)
EXTRAS = ("--outputs", "epsilon,N,Ns")

# name: (argv, budget)
BUDGETS = {
    "sweep-10x10-csv": (SWEEP + ("--format", "csv"), 656),
    "sweep-10x10-table": (SWEEP + ("--format", "table"), 985),
    "sweep-10x10-csv-extras": (SWEEP + EXTRAS + ("--format", "csv"), 978),
    "sweep-10x10-table-extras": (SWEEP + EXTRAS + ("--format", "table"), 1610),
    "transition": (("transition", "--slope", "1.8", "--kappa", "1e-5"), 58),
    "dissipation": (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), 70),
    "bound": (("bound", "--slope", "1.8"), 98),
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

