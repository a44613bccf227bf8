"""Pinned CLI output: stdout, stderr and exit code of a fixed corpus.

Every call in ``CORPUS`` is run through ``cli.main`` and compared byte
for byte with ``data/cli_output.json``. The corpus covers each
subcommand in both formats and at 3 and 6 significant figures, the
point queries at 1 and 767 figures (the formatter's edges), both N0
modes, explicit window and radius flags, the two range-edge calls of
the README (a count and a bound formed in logs), sweep error rows, an
underflowing cell and repeated and signed-zero axis values, 50-point
spectra of all four models, and one exit-2 and one exit-3 call.
``{data}`` in an argument stands for this directory's ``data`` folder.

To record the output of the code as it is (only when a change of output
is intended):

    PYTHONPATH=src python3 tests/test_cli_output.py --capture
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from zpfcross.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_output.json"

SWEEP = ("sweep", "--slopes", "1.7,1.8,2.0", "--kappas", "1,1e-5")
SWEEP_ERRORS = ("sweep", "--slopes", "0.5,1.5,2.9", "--kappas", "1,2,1e-300",
                "--outputs", "epsilon,N,Ns")
# repeated and signed-zero axis values; each list starts with a digit so
# that argparse does not read it as a flag
SWEEP_AXES = ("sweep", "--slopes", "1.8,1.8,-0.0,0.0,nan,2.0",
              "--kappas", "1e-5,-0.0,0.0,1e-5,5e-324,inf")
TRANSITION_MC = ("transition", "--slope", "1.8", "--kappa", "1e-5", "--ekappa", "0.2",
                 "--mc", "2000", "--seed", "4")

CORPUS = [
    ("constants",),
    ("constants", "--format", "csv"),
    ("constants", "--config", "{data}/h_override.cfg"),
    ("constants", "--format", "csv", "--config", "{data}/h_override.cfg"),

    ("transition", "--slope", "1.7", "--kappa", "1"),
    ("transition", "--slope", "1.7", "--kappa", "1", "--sigfigs", "6"),
    ("transition", "--slope", "2.0", "--kappa", "1e-5", "--format", "csv"),
    ("transition", "--slope", "2.0", "--kappa", "1e-5", "--format", "csv", "--sigfigs", "6"),
    ("transition", "--slope", "1.8", "--kappa", "1e-5", "--ekappa", "0.1"),
    ("transition", "--slope", "1.8", "--mc", "2000", "--seed", "4"),
    ("transition", "--slope", "1.8", "--kappa", "1e-5", "--ekappa", "0.2", "--mc", "2000",
     "--seed", "4", "--format", "csv", "--sigfigs", "6"),
    ("transition", "--slope", "2.0", "--config", "{data}/h_override.cfg"),

    ("dissipation", "--kappa", "1e-5", "--slope", "1.7"),
    ("dissipation", "--kappa", "1e-5", "--slope", "1.7", "--n0", "computed"),
    ("dissipation", "--kappa", "1e-5", "--slope", "1.7", "--format", "csv", "--sigfigs", "6"),
    ("dissipation", "--kappa", "1e-3", "--slope", "2.0", "--sigfigs", "6"),
    ("dissipation", "--kappa", "1e-5", "--slope", "1.8", "--window-days", "2.5",
     "--radius-lightminutes", "12"),
    ("dissipation", "--kappa", "1e-5", "--slope", "1.8", "--window-days", "2.5",
     "--radius-lightminutes", "12", "--n0", "computed", "--format", "csv"),

    ("bound", "--slope", "1.7"),
    ("bound", "--slope", "1.7", "--format", "csv"),
    ("bound", "--slope", "2.0", "--sigfigs", "6"),
    ("bound", "--slope", "1.7", "--format", "csv", "--sigfigs", "6"),
    ("bound", "--slope", "1.8", "--ns", "1e-10", "--window-days", "3",
     "--radius-lightminutes", "4"),
    ("bound", "--slope", "1.7", "--radius-lightminutes", "1e15", "--n0", "computed"),
    ("bound", "--slope", "1.7", "--radius-lightminutes", "1e15", "--n0", "computed",
     "--window-days", "2", "--format", "csv", "--sigfigs", "6"),
    # the range edges of the README: a count N = 9.54e-290 and a bound whose
    # N/N0 is below the normal floats (kappa = 8.7e-16), both formed in logs
    ("dissipation", "--kappa", "1e-16", "--slope", "1.05"),
    ("dissipation", "--kappa", "1e-16", "--slope", "1.05", "--format", "csv", "--sigfigs", "6"),
    ("bound", "--slope", "1.05", "--ns", "1e-315"),
    ("bound", "--slope", "1.05", "--ns", "1e-315", "--format", "csv", "--sigfigs", "6"),

    SWEEP,
    SWEEP + ("--format", "csv"),
    SWEEP + ("--sigfigs", "6"),
    SWEEP + ("--format", "csv", "--sigfigs", "6"),
    SWEEP_ERRORS,
    SWEEP_ERRORS + ("--format", "csv"),
    SWEEP_ERRORS + ("--n0", "computed", "--sigfigs", "6"),
    SWEEP_AXES,
    SWEEP_AXES + ("--format", "csv"),
    SWEEP_AXES + ("--outputs", "epsilon,N,Ns", "--sigfigs", "6"),
    SWEEP_AXES + ("--outputs", "epsilon,N,Ns", "--format", "csv"),

    ("spectrum", "--model", "boyer", "--points", "50"),
    ("spectrum", "--model", "truncated", "--points", "50"),
    ("spectrum", "--model", "powerlaw", "--slope", "1.8", "--kappa", "1e-5", "--points", "50"),
    ("spectrum", "--model", "ms", "--gamma", "2", "--points", "50"),

    # the formatter's edges: one figure, and 1000 figures (read as 767, which
    # prints every bit of a double; no --mc there, as numpy's exp can differ
    # in the last bit between hosts)
    TRANSITION_MC + ("--sigfigs", "1"),
    TRANSITION_MC + ("--sigfigs", "1", "--format", "csv"),
    *[argv + ("--sigfigs", figures) + fmt
      for argv in (("transition", "--slope", "1.8", "--kappa", "1e-5", "--ekappa", "0.2"),
                   ("dissipation", "--kappa", "1e-5", "--slope", "1.7"),
                   ("bound", "--slope", "1.7"))
      for figures in ("1", "1000") for fmt in ((), ("--format", "csv"))],

    ("bound", "--slope", "1.7", "--n0", "computed"),  # exit 2
    ("spectrum", "--model", "boyer", "--kmin", "1e-300", "--kmax", "1e300"),  # exit 3
]


def key(argv):
    return " ".join(argv)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    args = [arg.replace("{data}", str(DATA)) for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_matches_corpus():
    assert sorted(golden()) == sorted(key(argv) for argv in CORPUS)


@pytest.mark.parametrize("argv", CORPUS, ids=key)
def test_output_is_pinned(argv):
    assert run(argv) == golden()[key(argv)]


@pytest.mark.parametrize("argv", CORPUS, ids=key)
def test_equals_form_is_pinned(argv):
    # the flag table reads --flag value pairs and refuses --flag=value, which
    # the whole parser reads: both give the pinned exit code, stdout and stderr
    equals = (argv[0], *map("{}={}".format, argv[1::2], argv[2::2]))
    assert len(equals) == 1 + len(argv) // 2
    assert run(equals) == golden()[key(argv)]


def test_corpus_reversed_in_one_process():
    # every call of a process shares one parser and one default context;
    # replayed backwards, each call must still give its pinned output
    expected = golden()
    for argv in reversed(CORPUS):
        assert run(argv) == expected[key(argv)], key(argv)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({key(argv): run(argv) for argv in CORPUS}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(CORPUS)} calls to {GOLDEN}")
