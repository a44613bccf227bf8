import math
import struct
import sys

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from zpfcross import CosmologyContext
from zpfcross.dissipation import N0_MODES, solar_budget
from zpfcross.errors import EmptySweep, NumericFailure, ValidationError
from zpfcross.formatting import format_rows, format_values
from zpfcross.report import (
    BASE_COLUMNS,
    EXTRA_COLUMNS,
    EXTRA_OUTPUTS,
    ReportRow,
    SweepSpec,
    render,
    run_sweep,
)
from zpfcross.transition import transition_scale

PUBLISHED_LAMBDA = {
    (1.7, 1.0): 16.0, (1.8, 1.0): 53.0, (2.0, 1.0): 517.0,
    (1.7, 1e-5): 185.0, (1.8, 1e-5): 587.0, (2.0, 1e-5): 5172.0,
}


def rel(x, y):
    return abs(x - y) / abs(y)


class TestRunSweep:
    def test_grid_order_and_consistency(self, ctx):
        spec = SweepSpec(slopes=(1.7, 1.8, 2.0), kappas=(1.0, 1e-5))
        rows = run_sweep(spec, ctx)
        assert [(r.a, r.kappa) for r in rows] == [
            (1.7, 1.0), (1.7, 1e-5), (1.8, 1.0), (1.8, 1e-5), (2.0, 1.0), (2.0, 1e-5)]
        for row in rows:
            single = transition_scale(row.a, row.kappa, ctx)
            assert row.lambda0_m == single.lambda0.value
            assert row.sigma_m == single.sigma.value
            assert row.k0_per_m == single.k0.value
            assert row.error is None

    def test_reproduces_published_lambdas(self, ctx):
        spec = SweepSpec(slopes=(1.7, 1.8, 2.0), kappas=(1.0, 1e-5))
        for row in run_sweep(spec, ctx):
            assert rel(row.lambda0_m, PUBLISHED_LAMBDA[(row.a, row.kappa)]) < 0.02

    def test_single_cell_equals_single_shot(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(1.9,), kappas=(0.01,)), ctx)
        single = transition_scale(1.9, 0.01, ctx)
        assert len(rows) == 1
        assert rows[0].lambda0_m == single.lambda0.value

    def test_empty_sweep(self):
        with pytest.raises(EmptySweep):
            SweepSpec(slopes=(), kappas=(1.0,))
        with pytest.raises(EmptySweep):
            SweepSpec(slopes=(1.8,), kappas=())

    def test_unknown_output(self):
        with pytest.raises(ValidationError):
            SweepSpec(slopes=(1.8,), kappas=(1.0,), outputs=("lambda0", "entropy"))

    def test_unknown_n0_mode(self):
        with pytest.raises(ValidationError):
            SweepSpec(slopes=(1.8,), kappas=(1.0,), n0_mode="guessed")

    def test_replace_checks_and_normalises(self):
        spec = SweepSpec(slopes=(1.8,), kappas=(1.0,))
        assert spec._replace(slopes=[2, "2.5"]) == SweepSpec(slopes=(2.0, 2.5), kappas=(1.0,))
        with pytest.raises(EmptySweep):
            spec._replace(slopes=())
        with pytest.raises(ValidationError):
            spec._replace(outputs=("entropy",))
        with pytest.raises(ValueError):
            spec._replace(kappas=("x",))

    def test_error_markers_do_not_abort(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(1.8, 3.5), kappas=(1.0,)), ctx)
        assert rows[0].error is None
        assert rows[1].error == "SlopeOutOfRange"
        assert rows[1].lambda0_m is None

    def test_numeric_failure_becomes_error_row(self, ctx):
        spec = SweepSpec(slopes=(1.5, 2.9), kappas=(1.0, 1e-300), outputs=("epsilon",))
        rows = run_sweep(spec, ctx)
        assert [(r.a, r.kappa) for r in rows] == [
            (1.5, 1.0), (1.5, 1e-300), (2.9, 1.0), (2.9, 1e-300)]
        assert [r.error for r in rows] == [None, None, None, "NonFinite"]
        assert rows[3].lambda0_m is None and rows[3].epsilon_w_m3 is None

    def test_extra_outputs_match_budget(self, ctx):
        spec = SweepSpec(slopes=(1.8,), kappas=(1e-5,), outputs=("epsilon", "N", "Ns"))
        row = run_sweep(spec, ctx)[0]
        budget = solar_budget(1e-5, 1.8, ctx, n0_mode="paper")
        assert row.epsilon_w_m3 == budget.epsilon.value
        assert row.n_solar == budget.n_solar
        assert row.ns_solar == budget.ns_solar
        assert spec.columns == ("a", "kappa", "lambda0_m", "sigma_m", "k0_per_m",
                                "epsilon_w_m3", "n_solar", "ns_solar")


def cell_by_cell(spec, ctx):
    """Oracle: each row from transition_scale and solar_budget at its cell."""
    rows = []
    for a in spec.slopes:
        for kappa in spec.kappas:
            try:
                result = transition_scale(a, kappa, ctx)
                extras = {}
                if any(o in spec.outputs for o in EXTRA_OUTPUTS):
                    budget = solar_budget(kappa, a, ctx, n0_mode=spec.n0_mode)
                    values = {"epsilon": budget.epsilon.value, "N": budget.n_solar,
                              "Ns": budget.ns_solar}
                    extras = {EXTRA_COLUMNS[o]: values[o] for o in EXTRA_OUTPUTS
                              if o in spec.outputs}
                rows.append(ReportRow(a=a, kappa=kappa, lambda0_m=result.lambda0.value,
                                      sigma_m=result.sigma.value, k0_per_m=result.k0.value,
                                      **extras))
            except (ValidationError, NumericFailure) as exc:
                rows.append(ReportRow(a=a, kappa=kappa, error=type(exc).__name__))
    return rows


# contexts whose V, R, N0, eps or N_s leave the float range for some or all
# cells; with c = 1e-230 and H = 1e100, R underflows to 0, and with
# H = 1e-170, R**a overflows for the steeper slopes while V and R do not
CONTEXTS = [CosmologyContext.default(overrides) for overrides in (
    None, {"H": 1e-300}, {"H": 1e200}, {"G": 1e-300}, {"G": 1e300, "c": 1e-100},
    {"ell": 1e300}, {"ell": 1e-300}, {"e_H": 1e10}, {"e_H": 1e300}, {"M_sun": 1e-300},
    {"c": 1e-230, "H": 1e100}, {"H": 1e-170})]
EDGES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e-300, 1.0, 3.0)
SLOPES = st.one_of(st.sampled_from(EDGES + (1.0 + 1e-12, 3.0 - 1e-12)),
                   st.floats(min_value=0.8, max_value=3.2))
KAPPAS = st.one_of(st.sampled_from(EDGES + (2.0,)),
                   st.floats(min_value=-330.0, max_value=0.5).map(lambda x: 10.0 ** x))


class TestSweepEqualsCellByCell:
    @settings(max_examples=300, deadline=None)
    @given(slopes=st.lists(SLOPES, min_size=1, max_size=4),
           kappas=st.lists(KAPPAS, min_size=1, max_size=4),
           outputs=st.lists(st.sampled_from(EXTRA_OUTPUTS + ("lambda0",)), unique=True),
           n0_mode=st.sampled_from(N0_MODES), ctx=st.sampled_from(CONTEXTS))
    def test_rows(self, slopes, kappas, outputs, n0_mode, ctx):
        spec = SweepSpec(slopes, kappas, outputs, n0_mode)
        rows, expected = run_sweep(spec, ctx), cell_by_cell(spec, ctx)
        assert rows == expected
        # repr also tells -0.0 from 0.0 and shows each nan
        assert [repr(row) for row in rows] == [repr(row) for row in expected]

    def test_context_out_of_float_range(self):
        # R = c/H overflows with H = 1e-300: every cell with a valid slope and
        # kappa fails numerically; a bad slope or kappa keeps its own name
        spec = SweepSpec((0.5, 1.5), (1.0, 2.0), ("Ns",))
        rows = run_sweep(spec, CONTEXTS[1])
        assert [row.error for row in rows] == ["SlopeOutOfRange"] * 2 + [
            "NonFinite", "KappaOutOfRange"]
        assert rows == cell_by_cell(spec, CONTEXTS[1])
        # the computed N0 overflows with M_sun = 1e-300 kg; the published one does not
        light = CosmologyContext.default({"M_sun": 1e-300})
        spec = SweepSpec((1.8, 3.5), (1e-5,), ("N",), "computed")
        assert [row.error for row in run_sweep(spec, light)] == ["NonFinite",
                                                                 "SlopeOutOfRange"]
        row = run_sweep(SweepSpec((1.8,), (1e-5,), ("N",), "paper"), light)[0]
        assert row.n_solar == solar_budget(1e-5, 1.8, light).n_solar > 0.0


class TestFormatting:
    def test_sigfig_examples(self):
        assert format_values([5172.3, 16.036, 1.0e-5, 0.000123449, None], 3) == [
            "5.17e3", "16", "1e-5", "0.000123", ""]

    def test_sigfig_non_finite(self):
        # the format spec writes these without a sign on nan and without an exponent
        assert format_values([math.nan, -math.nan, math.inf, -math.inf], 3) == [
            "nan", "nan", "inf", "-inf"]

    def test_sigfig_width(self):
        assert format_values([5172.3], 5) == ["5172.3"]

    def test_figures_per_value(self):
        assert format_values([5172.3, 5172.3, None, 1.8], [1, 5, 3, 767]) == [
            "5e3", "5172.3", "", "1.8000000000000000444089209850062616169452667236328125"]

    def test_repr_mode(self):
        # the shortest round-trip repr as a float; None reads nan
        assert format_values([1.8, 3, None, -0.0, numpy.float64(5e-324), 1e300], None) == [
            "1.8", "3.0", "nan", "-0.0", "5e-324", "1e+300"]

    def test_no_values(self):
        assert format_values([], 3) == format_values([], None) == []


def oracle_text(value, figures):
    """One value's text, formatted alone: '%.*g' with compact exponents, or its repr."""
    if figures is None:
        return "nan" if value is None else repr(float(value))
    if value is None:
        return ""
    text = "%.*g" % (figures, value)
    if "e" in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}e{int(exponent)}"
    return text


# the edges: None, both zeros, subnormals, the largest floats and non-finite values
EDGE_VALUES = st.one_of(
    st.sampled_from((None, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     sys.float_info.max, -sys.float_info.max, math.nan, math.inf, -math.inf)),
    st.floats(allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))
FIGURES = st.one_of(st.sampled_from((1, 2, 3, 6, 16, 17, 767)), st.integers(1, 767))


class TestFormatValues:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(EDGE_VALUES, max_size=12), figures=st.one_of(st.none(), FIGURES))
    def test_one_count_equals_each_value_alone(self, values, figures):
        assert format_values(values, figures) == [oracle_text(v, figures) for v in values]

    @settings(max_examples=500, deadline=None)
    @given(pairs=st.lists(st.tuples(EDGE_VALUES, FIGURES), max_size=12))
    def test_a_count_per_value_equals_each_value_alone(self, pairs):
        values, figures = [v for v, _ in pairs], [n for _, n in pairs]
        assert format_values(values, figures) == [oracle_text(v, n) for v, n in pairs]

    def test_every_count_at_the_edges(self):
        values = [None, 0.0, -0.0, 5e-324, -2.5e-320, sys.float_info.max,
                  -sys.float_info.max, 1.8, 5172.3, 1e-5, math.nan, -math.inf]
        for figures in range(1, 768):
            assert format_values(values, figures) == [oracle_text(v, figures) for v in values]

    @settings(max_examples=300, deadline=None)
    @given(count=st.integers(0, 2 ** 53))
    def test_counts_print_whole_at_17_figures(self, count):
        # the CLI writes a count, such as mc_rejected, with 17 figures
        assert format_values([count], 17) == [str(count)]


class TestRender:
    def test_csv_header_and_roundtrip(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(1.7, 1.8, 2.0), kappas=(1.0, 1e-5)), ctx)
        text = render(rows, format="csv")
        lines = text.splitlines()
        assert lines[0] == "a,kappa,lambda0_m,sigma_m,k0_per_m"
        assert text.endswith("\n")
        assert len(lines) == 7
        for line, row in zip(lines[1:], rows):
            cells = [float(tok) for tok in line.split(",")]
            # full-precision repr round-trips exactly
            assert cells == [row.a, row.kappa, row.lambda0_m, row.sigma_m, row.k0_per_m]

    def test_csv_error_rows_are_nan(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(3.5,), kappas=(1.0,)), ctx)
        line = render(rows, format="csv").splitlines()[1]
        cells = line.split(",")
        assert cells[2] == "nan"
        assert math.isnan(float(cells[2]))

    def test_table_marks_errors(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(1.8, 3.5), kappas=(1.0,)), ctx)
        text = render(rows, format="table")
        assert "<error: SlopeOutOfRange>" in text

    def test_table_alignment_and_sigfigs(self, ctx):
        rows = run_sweep(SweepSpec(slopes=(2.0,), kappas=(1e-5,)), ctx)
        text = render(rows, format="table", sigfigs=3)
        assert "5.18e3" in text  # lambda0 = 5183 m at 3 significant figures
        header, row = text.splitlines()
        assert header.startswith("a ")

    def test_determinism(self, ctx):
        spec = SweepSpec(slopes=(1.7, 2.0), kappas=(1.0, 1e-5))
        first = render(run_sweep(spec, ctx), format="csv")
        second = render(run_sweep(spec, ctx), format="csv")
        assert first == second

    def test_empty_rows(self):
        with pytest.raises(EmptySweep):
            render([], format="csv")

    def test_unknown_format(self):
        with pytest.raises(ValidationError):
            render([ReportRow(a=1.8, kappa=1.0)], format="yaml")

    def test_rows_are_immutable_named_tuples(self):
        row = ReportRow(1.8, 1.0, 53.0, 4.5, 0.12)
        assert row == (1.8, 1.0, 53.0, 4.5, 0.12, None, None, None, None)
        assert row._fields[-1] == "error" and row.error is None
        with pytest.raises(AttributeError):
            row.lambda0_m = 1.0
        assert render([row, ReportRow(3.5, 1.0, error="SlopeOutOfRange")],
                      format="csv") == ("a,kappa,lambda0_m,sigma_m,k0_per_m\n"
                                        "1.8,1.0,53.0,4.5,0.12\n3.5,1.0,nan,nan,nan\n")


# Oracle: the per-cell render that formats every cell of every row,
# axis cells included, and lays out a table row cell by cell.

def reference_format_sig(value, sigfigs=3):
    if value is None:
        return ""
    text = f"{value:.{sigfigs}g}"
    if "e" in text:
        mantissa, exponent = text.split("e")
        text = f"{mantissa}e{int(exponent)}"
    return text


def reference_format_rows(rows, format):
    if format == "csv":
        return "".join(",".join(f'"{cell}"' if "," in cell else cell for cell in row) + "\n"
                       for row in rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def reference_render(rows, format, sigfigs, columns):
    cells = [list(columns)]
    for row in rows:
        if format == "csv":
            cells.append(["nan" if getattr(row, col) is None else repr(float(getattr(row, col)))
                          for col in columns])
        elif row.error is not None:
            cells.append([reference_format_sig(row.a, 6), reference_format_sig(row.kappa, 6),
                          f"<error: {row.error}>"] + [""] * (len(columns) - 3))
        else:
            cells.append([reference_format_sig(row.a, 6), reference_format_sig(row.kappa, 6)]
                         + [reference_format_sig(getattr(row, col), sigfigs)
                            for col in columns[2:]])
    return reference_format_rows(cells, format)


# few distinct values, so that grids repeat them, with both zeros and the
# non-finite and subnormal edges
AXIS_VALUES = st.sampled_from((1.8, 2.0, 1.5, 2.9, -0.0, 0.0, math.nan, math.inf, -math.inf,
                               5e-324, 1e-5, 1e-300, 1.0))
ALL_COLUMNS = BASE_COLUMNS + tuple(EXTRA_COLUMNS[o] for o in EXTRA_OUTPUTS)
# values of rows that a caller builds, not run_sweep
HAND_VALUES = st.sampled_from((0, 2, -3, 10 ** 20, True, numpy.float64(1.8), numpy.float64(-0.0),
                               numpy.float64(math.nan), numpy.float64(5e-324), 5e-324, -1e-310,
                               2.5e-320, 0.0, -0.0, 1.8, 1e300, -2.5e-7, math.nan, math.inf,
                               None))


class TestRenderEqualsPerCell:
    @settings(max_examples=300, deadline=None)
    @given(slopes=st.lists(AXIS_VALUES, min_size=1, max_size=6),
           kappas=st.lists(AXIS_VALUES, min_size=1, max_size=6),
           outputs=st.lists(st.sampled_from(EXTRA_OUTPUTS), unique=True),
           format=st.sampled_from(("csv", "table")), sigfigs=st.sampled_from((1, 3, 6, 17, 767)),
           order=st.permutations(range(len(ALL_COLUMNS))), every_column=st.booleans())
    @example(slopes=[1.8, -0.0, 0.0, -0.0], kappas=[0.0, 1e-5, -0.0, 1e-5], outputs=[],
             format="csv", sigfigs=3, order=range(8), every_column=False)
    @example(slopes=[0.0, 1.8, -0.0], kappas=[-0.0, 1e-5, 0.0], outputs=["N"],
             format="table", sigfigs=6, order=range(8), every_column=False)
    def test_render(self, ctx, slopes, kappas, outputs, format, sigfigs, order, every_column):
        spec = SweepSpec(slopes, kappas, outputs)
        rows = run_sweep(spec, ctx)
        # a column that the spec did not ask for holds None in every row
        names = ALL_COLUMNS if every_column else spec.columns
        columns = [names[i] for i in order if i < len(names)]
        for cols in (spec.columns, tuple(columns)):
            assert render(rows, format, sigfigs, cols) == reference_render(rows, format, sigfigs,
                                                                           cols)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.builds(ReportRow, *[HAND_VALUES] * 8, error=st.one_of(
               st.none(), st.sampled_from(("NonFinite", "SlopeOutOfRange")))),
               min_size=1, max_size=6),
           format=st.sampled_from(("csv", "table")), sigfigs=st.sampled_from((1, 3, 6, 17, 767)),
           order=st.permutations(range(len(ALL_COLUMNS))),
           length=st.integers(0, len(ALL_COLUMNS)))
    @example(rows=[ReportRow(numpy.float64(1.8), 3, numpy.float64(-0.0), 5e-324, -0.0, 0,
                             numpy.float64(2.5e-310), True)],
             format="csv", sigfigs=3, order=range(8), length=8)
    def test_render_hand_built_rows(self, rows, format, sigfigs, order, length):
        # rows a caller builds: ints, numpy floats (whose own repr is
        # np.float64(...)), subnormals, both zeros and None anywhere
        columns = tuple(ALL_COLUMNS[i] for i in order[:length])
        assert render(rows, format, sigfigs, columns) == reference_render(rows, format, sigfigs,
                                                                          columns)

    @settings(max_examples=500, deadline=None)
    @given(value=st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(
               lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])),
           sigfigs=st.one_of(st.sampled_from((1, 3, 6, 17, 767)), st.integers(1, 800)))
    def test_format_one_value(self, value, sigfigs):
        assert format_values([value], sigfigs) == [reference_format_sig(value, sigfigs)]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.text(max_size=6), min_size=width, max_size=width + 1), min_size=1,
        max_size=5)), format=st.sampled_from(("csv", "table")))
    def test_format_rows(self, rows, format):
        # ragged rows too: the table lays out as many columns as the shortest row
        assert format_rows(rows, format) == reference_format_rows(rows, format)
