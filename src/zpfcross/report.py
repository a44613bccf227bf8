"""Parameter sweeps over (slope, kappa) grids and text rendering.

``run_sweep`` fills a slope's cells from the float cores of ``transition_scale``
and ``solar_budget``, which raise; it alone decides that a failed cell
becomes an error row. ``render`` formats the value columns with one call
of ``formatting.format_values``."""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .constants import CosmologyContext
from .dissipation import budget_cell, budget_terms, check_n0_mode
from .errors import EmptySweep, NonFinite, NumericFailure, ValidationError
from .formatting import format_rows, format_values
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


_row = partial(tuple.__new__, ReportRow)  # from its nine fields, without the keywords


def run_sweep(spec: SweepSpec, ctx: CosmologyContext) -> List[ReportRow]:
    """Evaluate the grid a slope at a time. Each kappa is checked once; each
    slope is checked and its terms resolved once, then its cells are filled
    by ``scale_cell`` and ``budget_cell``, whose shared terms are resolved
    at the first cell that needs them. A cell's first failure, in the order
    of ``transition_scale`` then ``solar_budget`` (slope, kappa, the slope's
    terms, the cell, the budget), makes it a row with the error's name."""
    extras_wanted = any(o in spec.outputs for o in EXTRA_OUTPUTS)
    # from (eps, N, Ns, None): each wanted extra, None for the others, and no error
    pick = itemgetter(*[i if o in spec.outputs else 3 for i, o in enumerate(EXTRA_OUTPUTS)], 3)
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
                    sigma = lambda0 * terms.rel_sigma  # as TransitionResult.sigma
                    if sigma == math.inf:
                        raise NonFinite("sigma = lambda0*rel_sigma overflows")
                    extras = (None,) * 4
                    if extras_wanted:
                        if budget is None:
                            budget = budget_terms(ctx, n0_mode=spec.n0_mode)
                        extras = pick(budget_cell(budget, a, kappa) + (None,))
                    rows.append(_row((a, kappa, lambda0, sigma, k0) + extras))
                    continue
                except (ValidationError, NumericFailure) as exc:
                    error = type(exc).__name__
            rows.append(_row((a, kappa) + (None,) * 6 + (error,)))
    return rows


def _attempt(step, *args):
    """``(step(*args), None)``, or ``(None, name)`` of the ValidationError
    or NumericFailure that it raises."""
    try:
        return step(*args), None
    except (ValidationError, NumericFailure) as exc:
        return None, type(exc).__name__


def _axis_texts(values: Sequence[Optional[float]], sigfigs: Optional[int]) -> List[str]:
    """``format_values`` of each distinct value, or of all where a zero is (-0.0 == 0.0)."""
    distinct = list(set(values))
    texts = dict(zip(distinct, format_values(distinct, sigfigs)))
    return format_values(values, sigfigs) if 0 in texts else list(map(texts.__getitem__, values))


def render(rows: Sequence[ReportRow], format: str = "table", sigfigs: int = 3,
           columns: Sequence[str] = BASE_COLUMNS) -> str:
    """Render sweep rows as an aligned table or CSV text, column-wise.

    CSV carries full precision (shortest round-trip repr, lowercase
    scientific notation); the table formats a and kappa to 6 significant
    figures, then ``sigfigs``. Error cells render as the marker (table) or
    nan (CSV).
    """
    if not rows:
        raise EmptySweep("nothing to render")
    csv = format == "csv"
    names = columns if csv else ("a", "kappa", *columns[2:])
    n = len(rows)
    values = [list(map(attrgetter(name), rows)) for name in names]
    # the first two columns from their distinct values, the others in one call
    flat = format_values(list(chain.from_iterable(values[2:])), None if csv else sigfigs)
    texts = [_axis_texts(v, None if csv else 6) for v in values[:2]]
    texts += [flat[i:i + n] for i in range(0, n * len(values[2:]), n)]
    if csv:
        lines = map(",".join, zip(*texts)) if texts else repeat("", len(rows))
        return "\n".join([",".join(columns), *lines]) + "\n"
    cells = [tuple(columns), *zip(*texts)]
    for i, row in enumerate(rows, 1):
        if row.error is not None:
            cells[i] = (*cells[i][:2], f"<error: {row.error}>") + ("",) * (len(columns) - 3)
    return format_rows(cells, format)
