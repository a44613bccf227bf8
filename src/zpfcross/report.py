"""Parameter sweeps over (slope, kappa) grids and text rendering.

``run_sweep`` fills each cell from the float cores of ``transition_scale``
and ``solar_budget``, which raise; it alone decides that a failed cell
becomes an error row."""

from __future__ import annotations

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
    """Evaluate the grid. Each cell runs the steps of ``transition_scale``
    and then ``solar_budget`` in their order; an invalid slope or kappa,
    or a number that leaves the float range, makes the cell a row with
    the error's name. A slope's terms, and the budget's shared terms, are
    resolved at the first cell that needs them."""
    wanted = [o in spec.outputs for o in EXTRA_OUTPUTS]
    budget = None
    rows: List[ReportRow] = []
    for a in spec.slopes:
        terms = None
        for kappa in spec.kappas:
            try:
                check_slope(a)
                check_kappa(kappa)
                if terms is None:
                    terms = scale_terms(a, ctx)
                lambda0, k0 = scale_cell(terms, kappa)
                # sigma = lambda0*rel_sigma, NonFinite if it overflows
                sigma = times_powers(lambda0, (terms.rel_sigma,))
                extras = ()
                if any(wanted):
                    if budget is None:
                        budget = budget_terms(ctx, n0_mode=spec.n0_mode)
                    extras = budget_cell(budget, a, kappa)
                rows.append(ReportRow(a, kappa, lambda0, sigma, k0,
                                      *[v if want else None
                                        for v, want in zip(extras, wanted)]))
            except (ValidationError, NumericFailure) as exc:
                rows.append(ReportRow(a, kappa, error=type(exc).__name__))
    return rows


def format_sig(value: Optional[float], sigfigs: int = 3) -> str:
    """Format to significant figures with compact exponents (5.17e3)."""
    if value is None:
        return ""
    text = f"{value:.{sigfigs}g}"
    if "e" in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}e{int(exponent)}"
    return text


def _csv_cell(value: Optional[float]) -> str:
    if value is None:
        return "nan"
    return repr(float(value))


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
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def render(rows: Sequence[ReportRow], format: str = "table", sigfigs: int = 3,
           columns: Sequence[str] = BASE_COLUMNS) -> str:
    """Render sweep rows as an aligned table or CSV text.

    CSV carries full precision (shortest round-trip repr, lowercase
    scientific notation); the table formats to ``sigfigs`` significant
    figures. Error cells render as the marker (table) or nan (CSV).
    """
    if not rows:
        raise EmptySweep("nothing to render")
    cells = [list(columns)]
    for row in rows:
        if format == "csv":
            cells.append([_csv_cell(getattr(row, col)) for col in columns])
        elif row.error is not None:
            cells.append([format_sig(row.a, 6), format_sig(row.kappa, 6),
                          f"<error: {row.error}>"] + [""] * (len(columns) - 3))
        else:
            cells.append([format_sig(row.a, 6), format_sig(row.kappa, 6)]
                         + [format_sig(getattr(row, col), sigfigs) for col in columns[2:]])
    return format_rows(cells, format)
