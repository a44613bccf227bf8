"""CLI fuzz: every subcommand with arbitrary flags and values.

Each example runs one ``cli.main`` call in process, under the default
context and under three ``--config`` contexts whose constants leave the
float range (those of ``test_report.CONTEXTS``, and one whose R = c/H
overflows). Whatever the flags, the
call ends with exit 0, 2 or 3 (argparse's ``SystemExit`` included)
and raises nothing else, parses as ``build_parser().parse_args`` does,
and a sweep that exits 0 writes one row per (slope, kappa) cell.

Values are arbitrary where a value cannot make a call expensive. Sample
and point counts stay small or beyond the ceilings that refuse them at
once, and free text carries no digits, so no count can be read from it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfcross import cli
from zpfcross.cli import build_parser, main

from test_cli import outcome, table_flags

TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0", "1", "-1", "2", "1e-300", "5e-324", "1e308", "1e-15",
                     "nan", "inf", "-inf"]),
    st.integers(-3, 3).map(str))


def mostly(valid, wild):
    """``valid`` mostly, ``wild`` about one time in ten: most calls get
    past validation and reach the computation."""
    return st.integers(0, 9).flatmap(lambda pick: wild if pick == 5 else valid)


def choice(valid, invalid):
    return mostly(st.sampled_from(valid), st.just(invalid))


SLOPE = mostly(st.floats(1.0, 3.0, exclude_min=True, exclude_max=True).map(repr), NUMBER)
KAPPA = mostly(st.floats(-30.0, 0.0).map(lambda exponent: repr(10.0 ** exponent)), NUMBER)
VALUES = {
    "--format": choice(["table", "csv"], "json"),
    # beyond 2**31 - 1 format() refuses the precision; it is clamped to 767
    "--sigfigs": mostly(st.one_of(st.integers(1, 25), st.sampled_from([2 ** 31, 2 ** 70])),
                        st.integers(-2, 0)).map(str),
    "--n0": choice(["paper", "computed"], "both"),
    "--window-days": NUMBER,
    "--radius-lightminutes": NUMBER,
    "--slope": SLOPE,
    "--kappa": KAPPA,
    "--ekappa": NUMBER,
    # at most 2000 samples, or more than the ceiling, which draws nothing
    "--mc": st.one_of(st.integers(-3, 2000), st.just(10 ** 12)).map(str),
    "--seed": st.integers(-3, 2 ** 70).map(str),
    "--slopes": mostly(st.lists(SLOPE, min_size=1, max_size=4), st.lists(st.just(""))
                       ).map(",".join),
    "--kappas": mostly(st.lists(KAPPA, min_size=1, max_size=4), st.lists(st.just(""))
                       ).map(",".join),
    "--outputs": st.lists(st.sampled_from(["epsilon", "N", "Ns", "bogus", ""]),
                          max_size=4).map(",".join),
    "--ns": NUMBER,
    "--model": choice(["boyer", "truncated", "powerlaw", "ms"], "bad"),
    "--gamma": NUMBER,
    "--epsilon": NUMBER,
    "--kolmogorov-const": NUMBER,
    "--cutoff-k": NUMBER,
    "--kmin": NUMBER,
    "--kmax": NUMBER,
    # a few points, or more than numpy can index, which allocates nothing
    "--points": st.one_of(st.integers(-3, 300),
                          st.sampled_from([2 ** 63 - 1, 2 ** 63, 10 ** 20])).map(str),
}
# each subcommand's flags, its required ones first
FLAGS = {
    "constants": ("--format",),
    "transition": ("--slope", "--kappa", "--ekappa", "--mc", "--seed", "--format", "--sigfigs"),
    "sweep": ("--slopes", "--kappas", "--outputs", "--n0", "--format", "--sigfigs"),
    "dissipation": ("--kappa", "--slope", "--window-days", "--radius-lightminutes", "--n0",
                    "--format", "--sigfigs"),
    "bound": ("--slope", "--ns", "--window-days", "--radius-lightminutes", "--n0", "--format",
              "--sigfigs"),
    "spectrum": ("--model", "--slope", "--kappa", "--gamma", "--epsilon", "--kolmogorov-const",
                 "--cutoff-k", "--kmin", "--kmax", "--points"),
}
REQUIRED = {"constants": 0, "transition": 1, "sweep": 2, "dissipation": 2, "bound": 1,
            "spectrum": 1}


# flags of no subcommand, an abbreviation, a separator, help and version
STRAYS = st.sampled_from(["--warp", "-x", "--slo", "--", "--version", "-h"])


def flag_tokens(draw, flag):
    """The flag and a value, mostly of the flag's kind: the flag alone,
    or with its value in the next token or after '=' (always after '='
    for a value that argparse would take for a flag)."""
    value = draw(mostly(VALUES[flag], TEXT))
    form = draw(st.integers(0, 19))
    if form == 19:
        return [flag]
    if form >= 14 or value.startswith("-"):
        return [f"{flag}={value}"]
    return [flag, value]


@st.composite
def argvs(draw):
    """A subcommand, its required flags, then flags of its own, now and
    then another subcommand's flag, a stray token or free text."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in FLAGS[command][:REQUIRED[command]]:
        argv += flag_tokens(draw, flag)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 19))
        if kind < 16:
            argv += flag_tokens(draw, draw(st.sampled_from(FLAGS[command])))
        elif kind < 18:
            argv += flag_tokens(draw, draw(st.sampled_from(sorted(VALUES))))
        else:
            argv.append(draw(STRAYS if kind == 18 else TEXT))
    return argv


# the underflowing-R and overflowing-R**a contexts of test_report.CONTEXTS,
# and one whose R = c/H itself overflows
CONFIGS = {"default": None,
           "underflowing R": "c = 1e-230 m/s\nH = 1e100 1/s\n",
           "H = 1e-170": "H = 1e-170 1/s\n",
           "overflowing R": "H = 1e-320 1/s\n"}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config_flags(request, tmp_path_factory):
    text = CONFIGS[request.param]
    if text is None:
        return []
    path = tmp_path_factory.mktemp("fuzz") / "context.cfg"
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


@settings(max_examples=100, deadline=None)
@given(argv=argvs())
def test_any_flags_keep_the_exit_contract(config_flags, argv):
    argv = argv[:1] + config_flags + argv[1:]
    parsed = outcome(build_parser().parse_args, argv)
    assert repr(outcome(cli._parse, argv)) == repr(parsed)  # repr: nan == nan
    code, out, err = outcome(main, argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if argv[0] == "sweep" and code == 0 and isinstance(parsed[0], dict):
        assert len(out.splitlines()) - 1 == len(parsed[0]["slopes"]) * len(parsed[0]["kappas"])


def test_flags_name_every_flag_of_each_subcommand():
    # a flag declared in the command table is fuzzed; --config comes from
    # the config_flags fixture
    assert sorted(FLAGS) == sorted(cli._COMMANDS)
    for name in cli._COMMANDS:
        flags, required = table_flags(name)
        assert sorted(FLAGS[name]) == sorted(flags - {"--config"}), name
        assert set(FLAGS[name][:REQUIRED[name]]) == required, name
