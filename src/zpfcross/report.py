"""Parameter sweeps over (slope, kappa) grids and text rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .constants import CosmologyContext
from .dissipation import solar_budget
from .errors import EmptySweep, NumericFailure, ValidationError
from .transition import transition_scale

BASE_COLUMNS = ("a", "kappa", "lambda0_m", "sigma_m", "k0_per_m")
BASE_OUTPUTS = ("lambda0", "sigma", "k0")  # always emitted
EXTRA_OUTPUTS = ("epsilon", "N", "Ns")
EXTRA_COLUMNS = {"epsilon": "epsilon_w_m3", "N": "n_solar", "Ns": "ns_solar"}


@dataclass(frozen=True)
class SweepSpec:
    """A Cartesian sweep: slopes outer, kappas inner, deterministic order."""

    slopes: Tuple[float, ...]
    kappas: Tuple[float, ...]
    outputs: Tuple[str, ...] = ()
    n0_mode: str = "paper"

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", tuple(float(a) for a in self.slopes))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.slopes or not self.kappas:
            raise EmptySweep("sweep needs at least one slope and one kappa")
        unknown = [o for o in self.outputs if o not in BASE_OUTPUTS + EXTRA_OUTPUTS]
        if unknown:
            raise ValidationError(
                f"unknown outputs {unknown}; choose from {BASE_OUTPUTS + EXTRA_OUTPUTS}")

    @property
    def columns(self) -> Tuple[str, ...]:
        return BASE_COLUMNS + tuple(EXTRA_COLUMNS[o] for o in EXTRA_OUTPUTS
                                    if o in self.outputs)


@dataclass(frozen=True)
class ReportRow:
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
    """Evaluate the grid; invalid cells and cells whose numbers leave the
    float range become rows with error markers."""
    rows: List[ReportRow] = []
    for a in spec.slopes:
        for kappa in spec.kappas:
            try:
                result = transition_scale(a, kappa, ctx)
                extras = {}
                if any(o in spec.outputs for o in EXTRA_OUTPUTS):
                    budget = solar_budget(kappa, a, ctx, n0_mode=spec.n0_mode)
                    if "epsilon" in spec.outputs:
                        extras["epsilon_w_m3"] = budget.epsilon.value
                    if "N" in spec.outputs:
                        extras["n_solar"] = budget.n_solar
                    if "Ns" in spec.outputs:
                        extras["ns_solar"] = budget.ns_solar
                rows.append(ReportRow(
                    a=a, kappa=kappa,
                    lambda0_m=result.lambda0.value,
                    sigma_m=result.sigma.value,
                    k0_per_m=result.k0.value,
                    **extras,
                ))
            except (ValidationError, NumericFailure) as exc:
                rows.append(ReportRow(a=a, kappa=kappa, error=type(exc).__name__))
    return rows


def format_sig(value: Optional[float], sigfigs: int = 3) -> str:
    """Format to significant figures with compact exponents (5.17e3)."""
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return "nan"
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
