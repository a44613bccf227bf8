"""Command-line interface.

Subcommands: constants, transition, sweep, dissipation, bound,
spectrum; each takes only the flags it reads. Exit codes: 0 success,
2 validation error, 3 numeric failure. The window and radius of
dissipation and bound default to the context's t and ell, so a
--config file can set them; the flags override the file.

A call pays only for its own work. ``build_parser`` builds the parser
on its first call and returns the same one after that, ``main`` uses
the shared default context unless --config is given, and numpy is
imported only by ``spectrum`` and ``transition --mc``. ``main`` reads
an argv that starts with a subcommand in one argparse pass, by that
subcommand's parser alone, and reports leftover arguments as
``parse_args`` does; any other argv (no arguments, -h, --version, an
unknown subcommand) goes to ``build_parser().parse_args``. argparse
writes every usage, help and error text either way.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .constants import DAY_S, LIGHTMINUTE_M, CosmologyContext, load_config
from .dissipation import kappa_from_solar_bound, n0_value, solar_budget
from .errors import NonFinite, NumericFailure, ValidationError, ZpfcrossError
from .quantity import LENGTH, POWER_DENSITY, Dimension, Quantity, TIME, WAVENUMBER
from .report import SweepSpec, format_rows, format_sig, render, run_sweep
from .spectra import Boyer, MoisseevShivamoggi, PowerLawTurbulence, TruncatedBoyer
from .transition import monte_carlo_scale, transition_scale


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
    return value


def _write_pairs(pairs: Sequence[Tuple[str, str]], format: str) -> None:
    """Name/value pairs: one per line as a table, a header and one row as CSV."""
    sys.stdout.write(format_rows(pairs if format == "table" else list(zip(*pairs)), format))


def _cmd_constants(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    rows = [("name", "value", "unit", "rel_sigma", "source")]
    rows += [(name, repr(const.value), str(const.quantity.dim),
              repr(const.rel_sigma), const.source)
             for name, const in ctx.items()]
    sys.stdout.write(format_rows(rows, args.format))
    return 0


def _cmd_transition(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    result = transition_scale(args.slope, args.kappa, ctx, e_kappa=args.ekappa)
    sig = args.sigfigs
    pairs = [
        ("a", format_sig(args.slope, 6)),
        ("kappa", format_sig(args.kappa, 6)),
        ("lambda0_m", format_sig(result.lambda0.value, sig)),
        ("sigma_m", format_sig(result.sigma.value, sig)),
        ("rel_sigma", format_sig(result.rel_sigma, sig)),
        ("k0_per_m", format_sig(result.k0.value, sig)),
    ]
    for name, contribution in result.sigma_breakdown.items():
        pairs.append((f"sigma_{name}", format_sig(contribution, sig)))
    if args.mc:
        mc = monte_carlo_scale(args.slope, args.kappa, args.mc, args.seed, ctx,
                               e_kappa=args.ekappa)
        pairs += [("mc_mean_m", format_sig(mc.mean.value, sig)),
                  ("mc_rel_sigma", format_sig(mc.rel_sigma, sig)),
                  ("mc_rejected", str(mc.rejected))]
    _write_pairs(pairs, args.format)
    return 0


def _cmd_sweep(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    spec = SweepSpec(slopes=tuple(args.slopes), kappas=tuple(args.kappas),
                     outputs=tuple(args.outputs), n0_mode=args.n0)
    sys.stdout.write(render(run_sweep(spec, ctx), format=args.format,
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
    published = n0_value(ctx, window_t, "paper").value
    computed = n0_value(ctx, window_t, "computed").value
    return (f"# N0 mode: {n0_mode} (published {published:.3g}, "
            f"computed from constants {computed:.3g})")


def _cmd_dissipation(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    window, radius = _budget_span(args)
    budget = solar_budget(args.kappa, args.slope, ctx, window_t=window,
                          ell=radius, n0_mode=args.n0)
    print(_n0_note(ctx, args.n0, window))
    sig = args.sigfigs
    _write_pairs([
        ("kappa", format_sig(budget.kappa, 6)),
        ("a", format_sig(budget.slope, 6)),
        ("epsilon_w_m3", format_sig(budget.epsilon.value, sig)),
        ("epsilon_rel_sigma", format_sig(budget.epsilon.rel_sigma, sig)),
        ("n0", format_sig(budget.n0, sig)),
        ("n_solar", format_sig(budget.n_solar, sig)),
        ("ns_solar", format_sig(budget.ns_solar, sig)),
        ("window_days", format_sig(budget.window_t.value / DAY_S, sig)),
        ("ell_m", format_sig(budget.ell.value, sig)),
    ], args.format)
    return 0


def _cmd_bound(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    window, radius = _budget_span(args)
    kappa, result = kappa_from_solar_bound(args.ns, args.slope, ctx,
                                           window_t=window, ell=radius,
                                           n0_mode=args.n0)
    print(_n0_note(ctx, args.n0, window))
    sig = args.sigfigs
    _write_pairs([
        ("ns_bound", format_sig(args.ns, 6)),
        ("a", format_sig(args.slope, 6)),
        ("kappa", format_sig(kappa, sig)),
        ("lambda0_m", format_sig(result.lambda0.value, sig)),
        ("sigma_m", format_sig(result.sigma.value, sig)),
    ], args.format)
    return 0


def _spectrum_model(args: argparse.Namespace, ctx: CosmologyContext):
    if args.model == "boyer":
        return Boyer.from_context(ctx)
    if args.model == "truncated":
        return TruncatedBoyer.from_context(ctx, _flag_quantity(args, "cutoff_k", 1.0, WAVENUMBER))
    if args.model == "powerlaw":
        return PowerLawTurbulence.from_kappa(ctx, args.kappa, args.slope)
    if args.model == "ms":
        epsilon = _flag_quantity(args, "epsilon", 1.0, POWER_DENSITY)
        return MoisseevShivamoggi.from_context(ctx, args.gamma, epsilon,
                                               kolmogorov_const=args.kolmogorov_const)
    raise ValidationError(f"unknown model {args.model!r}")


def _cmd_spectrum(args: argparse.Namespace, ctx: CosmologyContext) -> int:
    model = _spectrum_model(args, ctx)
    kmin = args.kmin
    if kmin is None:
        radius = ctx.hubble_radius.value
        kmin = 1.0 / radius if radius > 0.0 else math.inf
        if kmin == math.inf:
            raise NonFinite(f"the default kmin = 1/R overflows for R = c/H = {radius!r} m")
    kmax = args.kmax if args.kmax is not None else 2.0 * math.pi / ctx.value("r_p")
    if not (0.0 < kmin < kmax < math.inf):
        raise ValidationError(f"need 0 < kmin < kmax < inf, got {kmin!r}, {kmax!r}")
    if args.points < 2:
        raise ValidationError("need at least 2 points")
    import numpy as np  # loaded for this subcommand only

    log_lo, log_hi = math.log(kmin), math.log(kmax)
    try:
        k = np.exp(log_lo + (log_hi - log_lo) * np.arange(args.points) / (args.points - 1))
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Parsing leaves the parser as it was (every default is immutable), so
    one parser serves every ``main`` call of a process.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """``build_parser()``'s parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="zpfcross",
        description="Vacuum/turbulence spectrum crossover scale and its error budget.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by subcommands; a subcommand takes only the flags it reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="constant override file")
    formatted = argparse.ArgumentParser(add_help=False, parents=[config])
    formatted.add_argument("--format", choices=("table", "csv"), default="table")
    figures = argparse.ArgumentParser(add_help=False, parents=[formatted])
    figures.add_argument("--sigfigs", type=_sigfigs, default=3, metavar="N",
                         help="significant figures of computed values (default 3)")
    modes = argparse.ArgumentParser(add_help=False, parents=[figures])
    modes.add_argument("--n0", choices=("paper", "computed"), default="paper",
                       help="N0 as published (1e57) or computed from the constants")
    budget = argparse.ArgumentParser(add_help=False, parents=[modes])
    budget.add_argument("--window-days", type=float, metavar="T",
                        help="energy-budget window in days; overrides t (1 day)")
    budget.add_argument("--radius-lightminutes", type=float, metavar="L",
                        help="rescaling radius in lightminutes; overrides ell (8)")

    p = sub.add_parser("constants", help="print the constant registry", parents=[formatted])
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("transition", help="closed-form transition scale", parents=[figures])
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.add_argument("--kappa", type=float, default=1.0, metavar="K")
    p.add_argument("--ekappa", type=float, default=0.0, metavar="E",
                   help="relative uncertainty of kappa")
    p.add_argument("--mc", type=int, default=0, metavar="N",
                   help="add a Monte Carlo check with N samples")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="random seed of the Monte Carlo check")
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("sweep", help="sweep a slope x kappa grid", parents=[modes])
    p.add_argument("--slopes", type=_float_list, required=True, metavar="A1,A2,...")
    p.add_argument("--kappas", type=_float_list, required=True, metavar="K1,K2,...")
    p.add_argument("--outputs", type=lambda s: [t for t in s.split(",") if t],
                   default=(), metavar="epsilon,N,Ns")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dissipation", help="dissipation rate and solar counts",
                       parents=[budget])
    p.add_argument("--kappa", type=float, required=True, metavar="K")
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.set_defaults(func=_cmd_dissipation)

    p = sub.add_parser("bound", help="kappa and scale from a dissipation ceiling",
                       parents=[budget])
    p.add_argument("--ns", type=float, default=1e-12, metavar="NS",
                   help="ceiling in solar masses per window (default 1e-12)")
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("spectrum", help="tabulate a spectrum as CSV", parents=[config])
    p.add_argument("--model", choices=("boyer", "truncated", "powerlaw", "ms"),
                   required=True)
    p.add_argument("--slope", type=float, default=1.8, metavar="A")
    p.add_argument("--kappa", type=float, default=1.0, metavar="K")
    p.add_argument("--gamma", type=float, default=2.0, metavar="G")
    p.add_argument("--epsilon", type=float, default=None, metavar="EPS",
                   help="injection rate W/m^3 (default: horizon rate)")
    p.add_argument("--kolmogorov-const", type=float, default=1.0, metavar="C")
    p.add_argument("--cutoff-k", type=float, default=None, metavar="KC")
    p.add_argument("--kmin", type=float, default=None)
    p.add_argument("--kmax", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=_cmd_spectrum)

    return parser, sub.choices


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one pass: what follows a
    subcommand is read by that subcommand's parser alone."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:  # help, --version or a usage error
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
