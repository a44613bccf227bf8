"""Parameter sweeps over (slope, kappa) grids and text rendering.

``run_sweep`` fills each cell from the float cores of ``transition_scale``
and ``solar_budget``, which raise; it alone decides that a failed cell
becomes an error row."""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .constants import CosmologyContext
from .dissipation import budget_cell, budget_terms, check_n0_mode
from .errors import EmptySweep, NumericFailure, ValidationError
from .quantity import times_powers
from .spectra import check_kappa, check_slope
# transition_scale is unused, but bench/tests patches it here (ROADMAP item 1)
from .transition import scale_cell, scale_terms, transition_scale  # noqa: F401

BASE_COLUMNS = ("a", "kappa", "lambda0_m", "sigma_m", "k0_per_m")
BASE_OUTPUTS = ("lambda0", "sigma", "k0")  # always emitted
EXTRA_OUTPUTS = ("epsilon", "N", "Ns")
EXTRA_COLUMNS = {"epsilon": "epsilon_w_m3", "N": "n_solar", "Ns": "ns_solar"}


class SweepSpec(NamedTuple("_SweepFields", [("slopes", Tuple[float, ...]),
                                            ("kappas", Tuple[float, ...]),
                                            ("outputs", Tuple[str, ...]), ("n0_mode", str)])):
    """A Cartesian sweep: slopes outer, kappas inner, deterministic order."""

    __slots__ = ()
    # _replace builds through _make, so it checks and normalises too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, slopes: Sequence[float], kappas: Sequence[float],
                outputs: Sequence[str] = (), n0_mode: str = "paper") -> "SweepSpec":
        spec = super().__new__(cls, tuple(float(a) for a in slopes),
                               tuple(float(k) for k in kappas), tuple(outputs), n0_mode)
        if not spec.slopes or not spec.kappas:
            raise EmptySweep("sweep needs at least one slope and one kappa")
        unknown = [o for o in spec.outputs if o not in BASE_OUTPUTS + EXTRA_OUTPUTS]
        if unknown:
            raise ValidationError(
                f"unknown outputs {unknown}; choose from {BASE_OUTPUTS + EXTRA_OUTPUTS}")
        check_n0_mode(n0_mode)
        return spec

    @property
    def columns(self) -> Tuple[str, ...]:
        return BASE_COLUMNS + tuple(EXTRA_COLUMNS[o] for o in EXTRA_OUTPUTS
                                    if o in self.outputs)


class ReportRow(NamedTuple):
    """One sweep cell; value fields are None when ``error`` is set."""

    a: float
    kappa: float
    lambda0_m: Optional[float] = None
    sigma_m: Optional[float] = None
    k0_per_m: Optional[float] = None
    epsilon_w_m3: Optional[float] = None
    n_solar: Optional[float] = None
    ns_solar: Optional[float] = None
    error: Optional[str] = None


def run_sweep(spec: SweepSpec, ctx: CosmologyContext) -> List[ReportRow]:
    """Evaluate the grid. Each slope and kappa is checked, and each valid
    slope's terms resolved, once; the budget's shared terms at the first
    cell that needs them. A cell's first failure, in the order of
    ``transition_scale`` then ``solar_budget`` (slope, kappa, the slope's
    terms, the cell, the budget), makes it a row with the error's name."""
    extras_wanted = any(o in spec.outputs for o in EXTRA_OUTPUTS)
    # from (eps, N, Ns, None): each wanted extra, and None for the others
    pick = itemgetter(*[i if o in spec.outputs else 3 for i, o in enumerate(EXTRA_OUTPUTS)])
    kappa_errors = [_attempt(check_kappa, kappa)[1] for kappa in spec.kappas]
    budget = None
    rows: List[ReportRow] = []
    for a in spec.slopes:
        slope_error = _attempt(check_slope, a)[1]
        terms, terms_error = (None, None) if slope_error else _attempt(scale_terms, a, ctx)
        for kappa, kappa_error in zip(spec.kappas, kappa_errors):
            error = slope_error or kappa_error or terms_error
            if error is None:
                try:
                    lambda0, k0 = scale_cell(terms, kappa)
                    # sigma = lambda0*rel_sigma, NonFinite if it overflows
                    sigma = times_powers(lambda0, (terms.rel_sigma,))
                    extras = (None, None, None)
                    if extras_wanted:
                        if budget is None:
                            budget = budget_terms(ctx, n0_mode=spec.n0_mode)
                        extras = pick(budget_cell(budget, a, kappa) + (None,))
                    rows.append(ReportRow(a, kappa, lambda0, sigma, k0, *extras))
                    continue
                except (ValidationError, NumericFailure) as exc:
                    error = type(exc).__name__
            rows.append(ReportRow(a, kappa, error=error))
    return rows


def _attempt(step, *args):
    """``(step(*args), None)``, or ``(None, name)`` of the ValidationError
    or NumericFailure that it raises."""
    try:
        return step(*args), None
    except (ValidationError, NumericFailure) as exc:
        return None, type(exc).__name__


def format_sig(value: Optional[float], sigfigs: int = 3) -> str:
    """Format to significant figures with compact exponents (5.17e3)."""
    if value is None:
        return ""
    text = "%.*g" % (sigfigs, value)
    if "e" not in text:
        return text
    return text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")


def format_rows(rows: Sequence[Sequence[str]], format: str) -> str:
    """Lay out rows of text cells: ``table`` pads each column to its widest
    cell, two spaces apart, trailing space stripped; ``csv`` joins cells
    with commas and quotes a cell that holds a comma."""
    if format == "csv":
        return "".join(",".join(f'"{cell}"' if "," in cell else cell for cell in row) + "\n"
                       for row in rows)
    if format != "table":
        raise ValidationError(f"unknown format {format!r}")
    widths = [max(map(len, column)) for column in zip(*rows)]
    template = "  ".join(f"{{:{w}}}" for w in widths)
    return "".join([template.format(*row).rstrip() + "\n" for row in rows])


def render(rows: Sequence[ReportRow], format: str = "table", sigfigs: int = 3,
           columns: Sequence[str] = BASE_COLUMNS) -> str:
    """Render sweep rows as an aligned table or CSV text.

    CSV carries full precision (shortest round-trip repr, lowercase
    scientific notation); the table formats to ``sigfigs`` significant
    figures. Error cells render as the marker (table) or nan (CSV).
    """
    if not rows:
        raise EmptySweep("nothing to render")
    csv = format == "csv"
    # each nonzero a and kappa formatted once; a zero where used, as -0.0 == 0.0
    axis = {v: repr(float(v)) if csv else format_sig(v, 6)
            for v in {v for row in rows for v in (row.a, row.kappa) if v}}
    if csv:
        # a value has the same text in any column; a repr or nan has no comma to quote
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join([axis.get(v) or ("nan" if v is None else repr(float(v)))
                                   for v in map(getattr, repeat(row), columns)]))
        return "\n".join(lines) + "\n"
    get = attrgetter("a", "kappa", "error", *columns[2:])
    cells = [list(columns)]
    for row in rows:
        a, kappa, error, *values = get(row)
        texts = [format_sig(v, sigfigs) for v in values] if error is None else [
            f"<error: {error}>"] + [""] * (len(columns) - 3)
        cells.append([axis.get(a) or format_sig(a, 6), axis.get(kappa) or format_sig(kappa, 6),
                      *texts])
    return format_rows(cells, format)
