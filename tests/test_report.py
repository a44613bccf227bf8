import math

import pytest

from zpfcross.dissipation import solar_budget
from zpfcross.errors import EmptySweep, ValidationError
from zpfcross.report import ReportRow, SweepSpec, format_sig, render, run_sweep
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


class TestFormatting:
    def test_sigfig_examples(self):
        assert format_sig(5172.3, 3) == "5.17e3"
        assert format_sig(16.036, 3) == "16"
        assert format_sig(1.0e-5, 3) == "1e-5"
        assert format_sig(0.000123449, 3) == "0.000123"
        assert format_sig(None) == ""

    def test_sigfig_width(self):
        assert format_sig(5172.3, 5) == "5172.3"


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
