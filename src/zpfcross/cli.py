"""Command-line interface.

Subcommands: constants, transition, sweep, dissipation, bound,
spectrum; each takes only the flags it reads. Exit codes: 0 success,
2 validation error, 3 numeric failure. The window and radius of
dissipation and bound default to the context's t and ell, so a
--config file can set them; the flags override the file.

Each subcommand is declared once, as data, in ``_COMMANDS``. A
well-formed argv, a subcommand and then exact ``--flag value`` pairs
that its parser would accept, is read from that table and builds no
parser. Every other argv (a ``--flag=value`` form, a value that starts
with '-', help, --version or a usage error) goes to the whole parser,
which ``build_parser`` builds from the table once per process, so its
texts are argparse's own. ``main`` uses the shared default context
unless --config is given, and numpy is imported only by ``spectrum``
and ``transition --mc``.

The handlers call the library through the package namespace
(``zpfcross.transition_scale``), so a process loads only the modules its
command runs: the first call loads the owning module and binds its
exports once per process, and each later call is one attribute lookup.
Parsing, ``constants`` and ``build_parser()`` load none of ``spectra``,
``transition``, ``dissipation`` and ``report``.

The point queries hand their raw values to ``_write_answer``, which
formats them in one ``format_values`` call; ``constants`` formats its
values in one such call too, as repr. ``sweep`` writes ``report.render``'s
text, and ``spectrum`` its rows as f-strings of each float's repr, the
fastest way to write the stream.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import zpfcross

from .constants import DAY_S, LIGHTMINUTE_M, CosmologyContext, load_config
from .errors import NumericFailure, ValidationError, ZpfcrossError
from .formatting import format_rows, format_values
from .quantity import LENGTH, POWER_DENSITY, Dimension, Quantity, TIME, WAVENUMBER


# rows of spectrum CSV formatted per write: bounds the text held at once
_CSV_BLOCK_ROWS = 4096


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list: {text!r}")


def _sigfigs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    # no double has more than 767 significant digits, so every larger N
    # formats as 767 does, and format() refuses a precision past 2**31 - 1
    return min(value, 767)


def _write_answer(args: argparse.Namespace, answer: Dict[str, float], counts: int = 0) -> None:
    """Write a point query's answer, every value formatted in one call: the
    two inputs that it echoes first to 6 significant figures, the others to
    --sigfigs, and its last ``counts`` values, which are counts, whole (17
    figures print an int below 2**53 as str does). As a table, one
    name/value pair per line; as CSV, a header and one row."""
    figures = [6, 6] + [args.sigfigs] * (len(answer) - 2 - counts) + [17] * counts
    texts = format_values(list(answer.values()), figures)
    rows = list(zip(answer, texts)) if args.format == "table" else [tuple(answer), texts]
    sys.stdout.write(format_rows(rows, args.format))


def _cmd_constants(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    items = list(ctx.items())
    texts = iter(format_values([x for _, q in items for x in (q.value, q.rel_sigma)], None))
    rows = [("name", "value", "unit", "rel_sigma", "source")]
    rows += [(name, next(texts), str(q.dim), next(texts), ctx.sources[name]) for name, q in items]
    sys.stdout.write(format_rows(rows, args.format))
    return 0


def _cmd_transition(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    result = zpfcross.transition_scale(args.slope, args.kappa, ctx, e_kappa=args.ekappa)
    answer = {"a": args.slope, "kappa": args.kappa, "lambda0_m": result.lambda0.value,
              "sigma_m": result.sigma.value, "rel_sigma": result.rel_sigma,
              "k0_per_m": result.k0.value,
              **{f"sigma_{name}": part for name, part in result.sigma_breakdown.items()}}
    if args.mc:
        mc = zpfcross.monte_carlo_scale(args.slope, args.kappa, args.mc, args.seed, ctx,
                                        e_kappa=args.ekappa)
        answer.update(mc_mean_m=mc.mean.value, mc_rel_sigma=mc.rel_sigma,
                      mc_rejected=mc.rejected)
    _write_answer(args, answer, counts=1 if args.mc else 0)
    return 0


def _cmd_sweep(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    spec = zpfcross.SweepSpec(slopes=tuple(args.slopes), kappas=tuple(args.kappas),
                              outputs=tuple(args.outputs), n0_mode=args.n0)
    sys.stdout.write(zpfcross.render(zpfcross.run_sweep(spec, ctx), format=args.format,
                                     sigfigs=args.sigfigs, columns=spec.columns))
    return 0


def _flag_quantity(args: argparse.Namespace, flag: str, unit: float,
                   dim: Dimension) -> Optional[Quantity]:
    """The flag's value times ``unit`` (its unit in SI) as a Quantity of
    ``dim``; None if the flag is absent, ValidationError unless finite."""
    value = getattr(args, flag)
    if value is None:
        return None
    if not math.isfinite(value * unit):
        raise ValidationError(f"--{flag.replace('_', '-')} must be finite in SI units, "
                              f"got {value!r}")
    return Quantity(value * unit, dim)


def _budget_span(args: argparse.Namespace) -> Tuple[Optional[Quantity], Optional[Quantity]]:
    """Window and radius flags as quantities; None (the context's t or ell) if absent."""
    return (_flag_quantity(args, "window_days", DAY_S, TIME),
            _flag_quantity(args, "radius_lightminutes", LIGHTMINUTE_M, LENGTH))


def _n0_note(ctx, n0_mode: str, window_t: Optional[Quantity]) -> str:
    published = zpfcross.n0_value(ctx, window_t, "paper").value
    computed = zpfcross.n0_value(ctx, window_t, "computed").value
    return (f"# N0 mode: {n0_mode} (published {published:.3g}, "
            f"computed from constants {computed:.3g})")


def _cmd_dissipation(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    window, radius = _budget_span(args)
    budget = zpfcross.solar_budget(args.kappa, args.slope, ctx, window_t=window,
                                   ell=radius, n0_mode=args.n0)
    print(_n0_note(ctx, args.n0, window))
    answer = {"kappa": budget.kappa, "a": budget.slope, "epsilon_w_m3": budget.epsilon.value,
              "epsilon_rel_sigma": budget.epsilon.rel_sigma, "n0": budget.n0,
              "n_solar": budget.n_solar, "ns_solar": budget.ns_solar,
              "window_days": budget.window_t.value / DAY_S, "ell_m": budget.ell.value}
    _write_answer(args, answer)
    return 0


def _cmd_bound(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    window, radius = _budget_span(args)
    kappa, result = zpfcross.kappa_from_solar_bound(args.ns, args.slope, ctx,
                                                    window_t=window, ell=radius,
                                                    n0_mode=args.n0)
    print(_n0_note(ctx, args.n0, window))
    answer = {"ns_bound": args.ns, "a": args.slope, "kappa": kappa,
              "lambda0_m": result.lambda0.value, "sigma_m": result.sigma.value}
    _write_answer(args, answer)
    return 0


def _spectrum_model(args: argparse.Namespace, ctx: CosmologyContext):
    if args.model == "boyer":
        return zpfcross.Boyer.from_context(ctx)
    if args.model == "truncated":
        return zpfcross.TruncatedBoyer.from_context(
            ctx, _flag_quantity(args, "cutoff_k", 1.0, WAVENUMBER))
    if args.model == "powerlaw":
        return zpfcross.PowerLawTurbulence.from_kappa(ctx, args.kappa, args.slope)
    if args.model == "ms":
        epsilon = _flag_quantity(args, "epsilon", 1.0, POWER_DENSITY)
        return zpfcross.MoisseevShivamoggi.from_context(ctx, args.gamma, epsilon,
                                                        kolmogorov_const=args.kolmogorov_const)
    raise ValidationError(f"unknown model {args.model!r}")


def _cmd_spectrum(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    model = _spectrum_model(args, ctx)
    kmin = zpfcross.default_wavenumber(ctx, "kmin") if args.kmin is None else args.kmin
    kmax = zpfcross.default_wavenumber(ctx, "kmax") if args.kmax is None else args.kmax
    if not (0.0 < kmin < kmax < math.inf):
        raise ValidationError(f"need 0 < kmin < kmax < inf, got {kmin!r}, {kmax!r}")
    if args.points < 2:
        raise ValidationError("need at least 2 points")
    import numpy as np  # loaded for this subcommand only

    log_lo, log_hi = math.log(kmin), math.log(kmax)
    try:
        steps = np.arange(args.points)
        if steps.size != args.points:  # numpy gives an empty range near 2**63 points
            raise ValueError
        k = np.exp(log_lo + (log_hi - log_lo) * steps / (args.points - 1))
        k[0], k[-1] = kmin, kmax  # exp(log(k)) can drift one ulp past the endpoints
        # the whole column is computed and checked before anything is written,
        # so a numeric failure leaves stdout empty
        energy = model.kernel(k)
    except (MemoryError, ValueError):  # ValueError: a length beyond numpy's index range
        raise ValidationError(f"--points {args.points} does not fit in memory") from None
    out = sys.stdout
    out.write("k,E\n")
    for start in range(0, args.points, _CSV_BLOCK_ROWS):
        # tolist() gives Python floats, whose repr is the shortest text
        # that reads back to the same value
        rows = zip(k[start:start + _CSV_BLOCK_ROWS].tolist(),
                   energy[start:start + _CSV_BLOCK_ROWS].tolist())
        out.write("".join(f"{kw!r},{e!r}\n" for kw, e in rows))
    return 0


# Each subcommand declared once, as data: its help, its handler and its
# flags, a flag being its option and the keywords of argparse's
# add_argument. Groups shared by subcommands are concatenated in
# declaration order; a subcommand takes only the flags it reads. The
# fast path reads each flag as one value and takes its default as it
# stands, so no flag sets action or nargs, and no default is a string
# that argparse would pass through the flag's type.
_CONFIG = (("--config", dict(metavar="FILE", help="constant override file")),)
_FORMATTED = _CONFIG + (("--format", dict(choices=("table", "csv"), default="table")),)
_FIGURES = _FORMATTED + (("--sigfigs", dict(
    type=_sigfigs, default=3, metavar="N",
    help="significant figures of computed values (default 3)")),)
_MODES = _FIGURES + (("--n0", dict(
    choices=("paper", "computed"), default="paper",
    help="N0 as published (1e57) or computed from the constants")),)
_BUDGET = _MODES + (
    ("--window-days", dict(type=float, metavar="T",
                           help="energy-budget window in days; overrides t (1 day)")),
    ("--radius-lightminutes", dict(type=float, metavar="L",
                                   help="rescaling radius in lightminutes; overrides ell (8)")))

_COMMANDS = {
    "constants": ("print the constant registry", _cmd_constants, _FORMATTED),
    "transition": ("closed-form transition scale", _cmd_transition, _FIGURES + (
        ("--slope", dict(type=float, required=True, metavar="A")),
        ("--kappa", dict(type=float, default=1.0, metavar="K")),
        ("--ekappa", dict(type=float, default=0.0, metavar="E",
                          help="relative uncertainty of kappa")),
        ("--mc", dict(type=int, default=0, metavar="N",
                      help="add a Monte Carlo check with N samples")),
        ("--seed", dict(type=int, default=0, metavar="S",
                        help="random seed of the Monte Carlo check")))),
    "sweep": ("sweep a slope x kappa grid", _cmd_sweep, _MODES + (
        ("--slopes", dict(type=_float_list, required=True, metavar="A1,A2,...")),
        ("--kappas", dict(type=_float_list, required=True, metavar="K1,K2,...")),
        ("--outputs", dict(type=lambda s: [t for t in s.split(",") if t],
                           default=(), metavar="epsilon,N,Ns")))),
    "dissipation": ("dissipation rate and solar counts", _cmd_dissipation, _BUDGET + (
        ("--kappa", dict(type=float, required=True, metavar="K")),
        ("--slope", dict(type=float, required=True, metavar="A")))),
    "bound": ("kappa and scale from a dissipation ceiling", _cmd_bound, _BUDGET + (
        ("--ns", dict(type=float, default=1e-12, metavar="NS",
                      help="ceiling in solar masses per window (default 1e-12)")),
        ("--slope", dict(type=float, required=True, metavar="A")))),
    "spectrum": ("tabulate a spectrum as CSV", _cmd_spectrum, _CONFIG + (
        ("--model", dict(choices=("boyer", "truncated", "powerlaw", "ms"), required=True)),
        ("--slope", dict(type=float, default=1.8, metavar="A")),
        ("--kappa", dict(type=float, default=1.0, metavar="K")),
        ("--gamma", dict(type=float, default=2.0, metavar="G")),
        ("--epsilon", dict(type=float, default=None, metavar="EPS",
                           help="injection rate W/m^3 (default: horizon rate)")),
        ("--kolmogorov-const", dict(type=float, default=1.0, metavar="C")),
        ("--cutoff-k", dict(type=float, default=None, metavar="KC")),
        ("--kmin", dict(type=float, default=None)),
        ("--kmax", dict(type=float, default=None)),
        ("--points", dict(type=int, default=200)))),
}


def _pair_table(name: str, func, flags) -> tuple:
    """What ``_read_pairs`` reads of subcommand ``name``: each flag's dest,
    type and choices by option, the required options, and the namespace
    that a parse starts from, in argparse's key order."""
    readers, defaults = {}, {"command": name}
    for option, spec in flags:
        dest = option[2:].replace("-", "_")
        readers[option] = dest, spec.get("type"), spec.get("choices")
        defaults[dest] = spec.get("default")
    defaults["func"] = func
    return readers, frozenset(o for o, spec in flags if spec.get("required")), defaults


_PAIR_TABLES = {name: _pair_table(name, func, flags)
                for name, (_, func, flags) in _COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built from ``_COMMANDS`` on the first call and
    shared after it: parsing leaves it as it was (every default is
    immutable), so one parser serves every ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="zpfcross",
        description="Vacuum/turbulence spectrum crossover scale and its error budget.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {zpfcross.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, spec in flags:
            command.add_argument(option, **spec)
        command.set_defaults(func=func)
    return parser


def _read_pairs(table: tuple, tokens: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace of ``tokens`` if they are exact ``--flag value`` pairs
    that argparse would accept as they stand, a repeated flag keeping its
    last value; None otherwise. A value that is empty or starts with '-'
    is left to argparse, which classifies such tokens by rules of its own."""
    if len(tokens) % 2:
        return None
    readers, required, defaults = table
    values = dict(defaults)
    for flag, text in zip(tokens[::2], tokens[1::2]):
        reader = readers.get(flag)
        if reader is None or not text or text[0] == "-":
            return None
        dest, kind, choices = reader
        try:
            value = text if kind is None else kind(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values) if required.issubset(tokens[::2]) else None


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. A subcommand followed by
    well-formed ``--flag value`` pairs is read from its pair table and
    builds no parser; the whole parser parses and words everything else."""
    argv = sys.argv[1:] if argv is None else argv
    table = _PAIR_TABLES.get(argv[0]) if argv else None
    args = None if table is None else _read_pairs(table, argv[1:])
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        ctx = CosmologyContext.default(load_config(args.config) if args.config else None)
        return args.func(args, ctx)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ZpfcrossError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
