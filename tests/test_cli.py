import argparse
import contextlib
import functools
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpfcross
from zpfcross import CosmologyContext, cli, transition
from zpfcross.cli import build_parser, main
from zpfcross.constants import DAY_S, LIGHTMINUTE_M
from zpfcross.dissipation import n0_value
from zpfcross.quantity import POWER_DENSITY, Quantity, TIME, WAVENUMBER
from zpfcross.report import format_sig
from zpfcross.spectra import Boyer, MoisseevShivamoggi, PowerLawTurbulence, TruncatedBoyer
from zpfcross.transition import transition_scale

from test_cli_output import CORPUS, DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConstantsCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        assert "hbar" in out and "1.054571628e-34" in out
        assert "rel_sigma" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["name", "value", "unit", "rel_sigma", "source"]
        assert any(row[0] == "H" for row in rows)


class TestTransitionCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "transition", "--slope", "1.7", "--kappa", "1")
        assert code == 0
        values = dict(line.split(None, 1) for line in out.splitlines())
        assert float(values["lambda0_m"]) == 16.0
        assert float(values["sigma_m"]) == 1.38
        assert "sigma_H" in values

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "transition", "--slope", "2.0", "--kappa", "1e-5",
                           "--format", "csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert header[:4] == ["a", "kappa", "lambda0_m", "sigma_m"]
        lam = float(rows[0][header.index("lambda0_m")])
        assert abs(lam - 5183.0) / 5183.0 < 1e-3

    def test_monte_carlo_flag_deterministic(self, capsys):
        args = ("transition", "--slope", "1.8", "--mc", "2000", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert "mc_mean_m" in out1
        assert out1 == out2

    def test_monte_carlo_too_large_for_memory(self, capsys, monkeypatch):
        # the generator raises as numpy does when the allocation fails,
        # so nothing is allocated here
        class NoMemory:
            def standard_normal(self, shape):
                raise MemoryError

        monkeypatch.setattr(transition, "_generator", lambda seed: NoMemory())
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--mc", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "100000000" in err
        assert len(err.splitlines()) == 1

    def test_monte_carlo_above_ceiling_draws_nothing(self, capsys, monkeypatch):
        # the sample count is refused before a generator is even built
        def no_generator(seed):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(transition, "_generator", no_generator)
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--mc", "1000000000000")
        assert (code, out) == (2, "")
        assert err == "error: at most 1000000000 Monte Carlo samples, got 1000000000000\n"

    def test_monte_carlo_out_of_float_range(self, capsys):
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--ekappa", "1000",
                             "--mc", "1000")
        assert code == 3
        assert err.startswith("numeric failure:") and len(err.splitlines()) == 1
        assert out == ""

    def test_monte_carlo_beyond_numpy_shapes(self, capsys):
        # numpy rejects this shape before allocating anything
        code, _, err = run(capsys, "transition", "--slope", "1.8",
                           "--mc", "10000000000000000000")
        assert code == 2
        assert err.startswith("error:") and "10000000000000000000" in err

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "transition", "--slope", "5")
        assert code == 2
        assert "slope" in err

    def test_kappa_validation(self, capsys):
        code, _, err = run(capsys, "transition", "--slope", "1.8", "--kappa", "0")
        assert code == 2

    def test_numeric_failure_exit_code(self, capsys, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("hbar = 1e308\nG = 1e308\n", encoding="utf-8")
        code, _, err = run(capsys, "transition", "--slope", "1.8",
                           "--config", str(config))
        assert code == 3
        assert "numeric" in err

    def test_constants_out_of_float_range_are_named(self, capsys, tmp_path):
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-300 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: V = G*hbar/(c**2*H), R = c/H or their uncertainty "
                       "leaves the float range with these constants\n")

    def test_overflowing_hubble_radius_power_names_the_cell(self, capsys, tmp_path):
        # with H = 1e-170 1/s, V and R = c/H are floats but R**2.9 overflows
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-170 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "transition", "--slope", "2.9", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: k0 leaves the float range at a = 2.9, "
                       "kappa = 1.0\n")

    def test_overflowing_sigma_is_named(self, capsys, ctx):
        # (q*e_kappa)**2 overflows, so rel_sigma and sigma are inf
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--ekappa", "1e300")
        assert (code, out) == (3, "")
        lambda0 = transition_scale(1.8, 1.0, ctx).lambda0.value
        assert err == ("numeric failure: sigma = lambda0*rel_sigma leaves the float range "
                       f"for lambda0 = {lambda0!r} m and rel_sigma = inf\n")

    def test_negative_seed_is_validation_error(self, capsys):
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--mc", "2000",
                             "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"


class TestSweepCommand:
    def test_published_table_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--slopes", "1.7,1.8,2.0",
                           "--kappas", "1,1e-5", "--format", "csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["a", "kappa", "lambda0_m", "sigma_m", "k0_per_m"]
        assert len(rows) == 6
        published = [16.0, 185.0, 53.0, 587.0, 517.0, 5172.0]
        for row, ref in zip(rows, published):
            assert abs(float(row[2]) - ref) / ref < 0.02

    def test_extra_outputs(self, capsys):
        code, out, _ = run(capsys, "sweep", "--slopes", "1.8", "--kappas", "1e-5",
                           "--outputs", "epsilon,N,Ns", "--format", "csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert header[-3:] == ["epsilon_w_m3", "n_solar", "ns_solar"]

    def test_invalid_cells_keep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "sweep", "--slopes", "1.8,3.5", "--kappas", "1")
        assert code == 0
        assert "<error: SlopeOutOfRange>" in out

    def test_empty_sweep_is_validation_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--slopes", "", "--kappas", "1")
        assert code == 2

    def test_numeric_failure_cell_becomes_error_row(self, capsys):
        # k0 underflows to zero at a = 2.9, kappa = 1e-300
        code, out, err = run(capsys, "sweep", "--slopes", "1.5,2.9",
                             "--kappas", "1,1e-300", "--format", "csv")
        header, rows = csv_rows(out)
        assert code == 0
        assert err == ""
        assert len(rows) == 4
        assert rows[3][:2] == ["2.9", "1e-300"]
        assert all(cell == "nan" for cell in rows[3][2:])
        assert all(cell != "nan" for row in rows[:3] for cell in row)
        code, out, _ = run(capsys, "sweep", "--slopes", "1.5,2.9", "--kappas", "1,1e-300")
        assert code == 0
        assert "<error: NonFinite>" in out

    def test_context_out_of_float_range_marks_every_valid_cell(self, capsys, tmp_path):
        # with H = 1e-300 1/s the context's R = c/H overflows;
        # each cell still becomes a row, a bad slope or kappa keeping its own name
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-300 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--slopes", "0.5,1.5,2.9",
                             "--kappas", "1,2,1e-300", "--outputs", "epsilon,N,Ns",
                             "--config", str(config))
        assert (code, err) == (0, "")
        markers = [line.split("<error: ")[1].rstrip(">") for line in out.splitlines()[1:]]
        assert markers == ["SlopeOutOfRange"] * 3 + ["NonFinite", "KappaOutOfRange",
                                                      "NonFinite"] * 2
        code, out, _ = run(capsys, "sweep", "--slopes", "0.5,1.5,2.9",
                           "--kappas", "1,2,1e-300", "--format", "csv",
                           "--config", str(config))
        header, rows = csv_rows(out)
        assert code == 0
        assert len(rows) == 9
        assert all(cell == "nan" for row in rows for cell in row[2:])

    def test_underflowing_hubble_radius_marks_every_valid_cell(self, capsys, tmp_path):
        # R = c/H underflows to 0 with c = 1e-230 m/s and H = 1e100 1/s,
        # and V overflows; the extras do not abort the sweep
        config = tmp_path / "r.cfg"
        config.write_text("c = 1e-230 m/s\nH = 1e100 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--slopes", "0.5,1.8", "--kappas", "1,2",
                             "--outputs", "Ns", "--config", str(config))
        assert (code, err) == (0, "")
        markers = [line.split("<error: ")[1].rstrip(">") for line in out.splitlines()[1:]]
        assert markers == ["SlopeOutOfRange"] * 2 + ["NonFinite", "KappaOutOfRange"]

    def test_overflowing_hubble_radius_power_marks_its_slope(self, capsys, tmp_path):
        # with H = 1e-170 1/s, R**a overflows at a = 2.9 but not at a = 1.1
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-170 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--slopes", "1.1,2.9", "--kappas", "1",
                             "--config", str(config))
        assert (code, err) == (0, "")
        first, second = out.splitlines()[1:]
        assert "<error" not in first and first.split()[:2] == ["1.1", "1"]
        assert second.split() == ["2.9", "1", "<error:", "NonFinite>"]


class TestDissipationCommand:
    def test_negative_window_is_validation_error(self, capsys):
        code, out, err = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.8",
                             "--window-days", "-1")
        assert (code, out) == (2, "")
        assert err == "error: window must be a positive time\n"

    def test_provenance_note_and_values(self, capsys):
        code, out, _ = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.7")
        assert code == 0
        assert out.splitlines()[0].startswith("# N0 mode: paper")
        assert "computed from constants" in out
        assert "2.1e9" in out.splitlines()[0].replace("e+09", "e9")
        assert "ns_solar" in out

    def test_computed_mode(self, capsys):
        code, out, _ = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.7",
                           "--n0", "computed")
        assert code == 0
        assert "# N0 mode: computed" in out

    def test_overflowing_radius_is_numeric_failure(self, capsys):
        code, _, err = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.7",
                           "--radius-lightminutes", "1e290")
        assert code == 3
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize("kappa, lightminutes, expected", [
        ("1e-300", "1e120", 5.957e211),  # (ell/R)**3 overflows
        ("1", "1e-94", 4.67481e-273),  # (ell/R)**3 underflows to zero
    ])
    def test_cube_out_of_range_count_in_range(self, capsys, kappa, lightminutes, expected):
        # oracle: N_s = N*(ell/R)**3 in logs, N = 1e57*(1.9*kappa)**(1/1.9)
        code, out, err = run(capsys, "dissipation", "--kappa", kappa, "--slope", "2.9",
                             "--radius-lightminutes", lightminutes, "--format", "csv",
                             "--sigfigs", "6")
        assert (code, err) == (0, "")
        header, rows = csv_rows(out.split("\n", 1)[1])
        assert float(rows[0][header.index("ns_solar")]) == expected

    def test_constants_out_of_float_range_are_named(self, capsys, tmp_path):
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-300 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.8",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: rho*c**3/R or R leaves the float range "
                       "with these constants\n")
        # R = c/H underflows to 0
        config.write_text("c = 1e-230 m/s\nH = 1e100 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "dissipation", "--kappa", "1e-5", "--slope", "1.8",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: rho*c**3/R or R leaves the float range "
                       "with these constants\n")

    def test_underflowing_count_does_not_hide_a_normal_rescaled_count(self, capsys):
        # N = 1e57*(0.459*kappa)**(1/0.459) is about 1e-460 and underflows to 0,
        # while N_s = N*(ell/R)**3 is about 8e-132; oracle: N_s in logs
        code, out, err = run(capsys, "dissipation", "--kappa", "6.86934e-238",
                             "--slope", "1.459", "--radius-lightminutes", "4.03e125",
                             "--format", "csv", "--sigfigs", "6")
        assert (code, err) == (0, "")
        header, rows = csv_rows(out.split("\n", 1)[1])
        values = dict(zip(header, rows[0]))
        assert values["n_solar"] == "0"
        log_ns = (math.log(1e57) + math.log(0.459 * 6.86934e-238) / 0.459
                  + 3.0 * math.log(4.03e125 * LIGHTMINUTE_M
                                   / CosmologyContext.default().hubble_radius.value))
        assert values["ns_solar"] == format_sig(math.exp(log_ns), 6) == "8.07237e-132"


    @pytest.mark.parametrize("command", [
        ("dissipation", "--kappa", "1e-5", "--slope", "1.8"),
        ("dissipation", "--kappa", "1e-5", "--slope", "1.8", "--n0", "computed"),
        ("bound", "--slope", "1.8"),
    ])
    def test_overflowing_computed_n0_names_the_window(self, capsys, command):
        # even in paper mode, the note line computes N0 from the constants
        code, out, err = run(capsys, *command, "--window-days", "1e300")
        assert (code, out) == (3, "")
        assert err == ("numeric failure: the computed N0 = rho*c*R**2*t/M leaves the "
                       f"float range for t = {1e300 * DAY_S!r} s and these constants\n")

    def test_count_past_a_vanishing_cascade(self, capsys):
        # ((a-1)*kappa)**(1/(a-1)) underflows to 0 while N = 9.54e-290 is a
        # normal float (oracle: 50-digit mpmath)
        code, out, err = run(capsys, "dissipation", "--kappa", "1e-16", "--slope", "1.05",
                             "--format", "csv")
        assert (code, err) == (0, "")
        header, rows = csv_rows(out.split("\n", 1)[1])
        assert rows[0][header.index("n_solar")] == "9.54e-290"
        code, out, err = run(capsys, "sweep", "--slopes", "1.05", "--kappas", "1e-16",
                             "--outputs", "N", "--format", "csv")
        assert (code, err) == (0, "")
        header, rows = csv_rows(out)
        assert math.isclose(float(rows[0][header.index("n_solar")]), 9.536743164069414e-290,
                            rel_tol=1e-12)


class TestBoundCommand:
    def test_published_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--slope", "1.7")
        assert code == 0
        assert "# N0 mode: paper" in out
        lines = dict()
        for line in out.splitlines()[1:]:
            name, value = line.split(None, 1)
            lines[name] = value.strip()
        kappa = float(lines["kappa"])
        lam = float(lines["lambda0_m"])
        assert 0.5 < kappa / 9e-18 < 2.0
        assert abs(lam - 67e3) / 67e3 < 0.15

    def test_overflowing_bound_is_numeric_failure(self, capsys):
        # N = 1e-200 * (6.7e185)**3, about 3e357, is beyond the float range
        code, _, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e-200",
                           "--radius-lightminutes", "1e-170")
        assert code == 3
        assert err.startswith("numeric failure:")

    def test_count_in_range_past_an_overflowing_cube(self, capsys):
        # (R/ell)**3 alone overflows, but N = 1e-200 * (6.7e115)**3, about
        # 3e147, is in range; the kappa it gives, about 4e171, is not
        code, out, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e-200",
                             "--radius-lightminutes", "1e-100")
        assert code == 2
        assert out == ""
        assert err.startswith("error: turbulence degree must lie in (0, 1], got 4.2")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("slope, ns", [("2.9", "1e-200"), ("2.5", "1e-210"),
                                           ("2.0", "1e-320")])
    def test_underflowing_kappa_is_a_numeric_failure(self, capsys, slope, ns):
        # kappa = (N/N0)**(a-1)/(a-1) underflows to 0: one line naming
        # kappa, N and N0, not a bad kappa that the call never gave
        code, out, err = run(capsys, "bound", "--slope", slope, "--ns", ns)
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: kappa = (N/N0)**(a-1)/(a-1) underflows "
                              "to 0 for N = ")
        assert err.endswith(" and N0 = 1e+57\n") and len(err.splitlines()) == 1

    def test_count_out_of_float_range(self, capsys):
        # N = Ns*(R/ell)**3 leaves the float range before kappa is formed
        code, out, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e300",
                             "--radius-lightminutes", "1e-300")
        assert code in (2, 3)
        assert err.startswith(("error:", "numeric failure:"))
        assert "Traceback" not in err
        assert out == ""

    def test_count_overflow_names_n_ns_and_ell(self, capsys):
        code, out, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e300",
                             "--radius-lightminutes", "1e-300")
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure: the count N = Ns*(R/ell)**3 ")
        assert "Ns = 1e+300" in err
        assert f"ell = {1e-300 * LIGHTMINUTE_M!r} m" in err

    def test_count_ratio_below_the_normal_range(self, capsys):
        # N/N0 underflows to 0, while kappa = 8.70e-16 is a normal float
        code, out, err = run(capsys, "bound", "--slope", "1.05", "--ns", "1e-315")
        assert (code, err) == (0, "")
        values = dict(line.split(None, 1) for line in out.splitlines()[1:])
        assert values["kappa"] == "8.7e-16"

    def test_computed_mode_rejected(self, capsys):
        code, _, err = run(capsys, "bound", "--slope", "1.7", "--n0", "computed")
        assert code == 2
        assert "turbulence degree" in err


class TestSpectrumCommand:
    def test_boyer_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "boyer",
                           "--kmin", "1", "--kmax", "100", "--points", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,E"
        assert len(lines) == 4
        k, e = (float(tok) for tok in lines[1].split(","))
        assert abs(e - 1.054571628e-34 * 2.99792458e8 * k ** 3) / e < 1e-12

    def test_powerlaw_defaults(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "powerlaw",
                           "--slope", "1.8", "--kappa", "1e-5", "--points", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_ms_and_truncated(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--model", "ms", "--gamma", "2",
                           "--kmin", "1e-10", "--kmax", "1e10", "--points", "4")
        assert code == 0
        code, out, _ = run(capsys, "spectrum", "--model", "truncated",
                           "--points", "4")
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert float(last.split(",")[1]) > 0.0  # cutoff is inclusive

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "spectrum", "--model", "boyer",
                           "--kmin", "10", "--kmax", "1")
        assert code == 2

    @pytest.mark.parametrize("config_text, radius", [
        ("c = 1e-230 m/s\nH = 1e100 1/s\n", "0.0"),
        ("c = 1e-160 m/s\nH = 1e150 1/s\n", "1e-310"),
    ], ids=["R underflows to 0", "R is subnormal"])
    def test_default_kmin_beyond_floats_is_numeric_failure(self, capsys, tmp_path,
                                                          config_text, radius):
        config = tmp_path / "r.cfg"
        config.write_text(config_text, encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", "boyer", "--points", "3",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == (f"numeric failure: the default kmin = 1/R overflows for "
                       f"R = c/H = {radius} m\n")

    @pytest.mark.parametrize("model", ["boyer", "truncated", "powerlaw"])
    def test_default_kmin_of_an_overflowing_radius_names_r(self, capsys, tmp_path, model):
        # with H = 1e-320 1/s, R = c/H itself overflows, so 1/R cannot be formed
        config = tmp_path / "r.cfg"
        config.write_text("H = 1e-320 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", model, "--points", "3",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: the default kmin = 1/R cannot be formed: "
                       "R = c/H leaves the float range with these constants\n")

    @pytest.mark.parametrize("model", ["boyer", "truncated"])
    def test_default_planck_wavenumber_beyond_floats_is_numeric_failure(self, capsys, tmp_path,
                                                                       model):
        # the default kmax of boyer and the cutoff of truncated are 2*pi/r_p
        config = tmp_path / "rp.cfg"
        config.write_text("r_p = 1e-320 m\n", encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", model, "--points", "3",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: the Planck wavenumber 2*pi/r_p overflows for "
                       "r_p = 1e-320 m\n")

    @pytest.mark.parametrize("config_text, flag, value", [
        ("r_p = 1e-320 m\n", "--kmax", "10"),
        ("c = 1e-230 m/s\nH = 1e100 1/s\n", "--kmin", "1e-20"),
        ("H = 1e-320 1/s\n", "--kmin", "1e-20"),
    ], ids=["kmax given", "kmin given", "kmin given, R overflows"])
    def test_an_end_given_by_flag_is_not_computed(self, capsys, tmp_path, config_text,
                                                  flag, value):
        config = tmp_path / "k.cfg"
        config.write_text(config_text, encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", "boyer", "--points", "3",
                             flag, value, "--config", str(config))
        assert (code, err) == (0, "")
        k = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert float(value) == (k[-1] if flag == "--kmax" else k[0])

    def test_injection_rate_beyond_floats_is_named(self, capsys, tmp_path):
        config = tmp_path / "eps.cfg"
        config.write_text("c = 1e-230 m/s\nH = 1e100 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--points", "3",
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == ("numeric failure: eps = 3*rho*c**3/R leaves the float range "
                       "with these constants\n")

    @pytest.mark.parametrize("flags, message", [
        ((), "eps = 3*rho*c**3/R underflows to 0 with these constants"),
        (("--epsilon", "1"), "rho_crit = 3*H**2/(8*pi*G) underflows to 0 with these constants"),
    ], ids=["computed eps", "given eps"])
    def test_computed_ms_inputs_that_underflow_are_numeric_failures(self, capsys, tmp_path,
                                                                    flags, message):
        config = tmp_path / "h.cfg"
        config.write_text("H = 1e-320 1/s\n", encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--points", "3", *flags,
                             "--config", str(config))
        assert (code, out) == (3, "")
        assert err == f"numeric failure: {message}\n"

    @pytest.mark.parametrize("config_text", [
        "H = 1e-320 1/s\n", "c = 1e-230 m/s\nH = 1e100 1/s\n",
    ], ids=["eps underflows", "eps overflows"])
    def test_bad_gamma_is_validation_error_before_eps(self, capsys, tmp_path, config_text):
        # gamma is checked before eps and rho_crit are formed from the constants
        config = tmp_path / "g.cfg"
        config.write_text(config_text, encoding="utf-8")
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--gamma", "0.2",
                             "--points", "3", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: adiabatic index must exceed 1/3, got 0.2\n"

    def test_given_zero_epsilon_is_validation_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--points", "3",
                             "--epsilon", "0")
        assert (code, out) == (2, "")
        assert err == "error: epsilon must be positive\n"

    def test_one_point_is_validation_error(self, capsys):
        code, out, err = run(capsys, "spectrum", "--model", "boyer", "--points", "1")
        assert (code, out) == (2, "")
        assert err == "error: need at least 2 points\n"

    @pytest.mark.parametrize("points", [2 ** 63 - 1, 2 ** 63, 10 ** 20])
    def test_points_beyond_numpy_shapes_is_validation_error(self, capsys, points):
        # numpy refuses 10**20 before allocating anything, and gives an
        # empty range for a length near 2**63
        code, out, err = run(capsys, "spectrum", "--model", "boyer", "--points", str(points))
        assert (code, out) == (2, "")
        assert err == f"error: --points {points} does not fit in memory\n"

    def test_points_out_of_memory_is_validation_error(self, capsys, monkeypatch):
        # the grid raises as numpy does when the allocation fails
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(numpy, "arange", no_memory)
        code, out, err = run(capsys, "spectrum", "--model", "boyer", "--points", "100000")
        assert (code, out) == (2, "")
        assert err == "error: --points 100000 does not fit in memory\n"

    def test_overflowing_power_is_numeric_failure(self, capsys):
        # k**3 overflows a float long before k = 1e300
        code, out, err = run(capsys, "spectrum", "--model", "boyer",
                             "--kmin", "1e-300", "--kmax", "1e300")
        assert code == 3
        assert err.startswith("numeric failure:")
        assert "Traceback" not in err
        assert out == ""  # not even the header of a short table

    def test_overflowing_exp_is_numeric_failure(self, capsys):
        # 1/(3*gamma - 1) = 500 near the pole: E(k) overflows at small k
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--gamma", "0.334",
                             "--kmin", "1e-30", "--kmax", "1e-25")
        assert code == 3
        assert err.startswith("numeric failure:")
        assert out == ""
        # 5*gamma - 1 itself overflows a float
        code, out, err = run(capsys, "spectrum", "--model", "ms", "--gamma", "1e308")
        assert code == 3
        assert err.startswith("numeric failure:")
        assert out == ""

    @pytest.mark.parametrize("const", ["-1", "0", "nan", "inf"])
    def test_kolmogorov_const_must_be_positive_and_finite(self, capsys, const):
        code, out, err = run(capsys, "spectrum", "--model", "ms",
                             "--kolmogorov-const", const, "--points", "3")
        assert code == 2
        assert err.startswith("error:") and "Kolmogorov constant" in err
        assert out == ""

    @pytest.mark.parametrize("model, flags", [
        ("boyer", ()),
        ("truncated", ("--cutoff-k", "3.3e7")),
        ("powerlaw", ("--slope", "2.3", "--kappa", "1e-7")),
        ("ms", ("--gamma", "0.9", "--epsilon", "3e-25", "--kolmogorov-const", "1.5")),
    ])
    def test_every_line_matches_the_model(self, capsys, ctx, model, flags):
        kmin, kmax, points = 3.1e-26, 2.7e34, 257
        code, out, _ = run(capsys, "spectrum", "--model", model, "--kmin", repr(kmin),
                           "--kmax", repr(kmax), "--points", str(points), *flags)
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["k", "E"]
        assert len(rows) == points
        assert float(rows[0][0]) == kmin and float(rows[-1][0]) == kmax
        spectrum = {
            "boyer": lambda: Boyer.from_context(ctx),
            "truncated": lambda: TruncatedBoyer.from_context(ctx, Quantity(3.3e7, WAVENUMBER)),
            "powerlaw": lambda: PowerLawTurbulence.from_kappa(ctx, 1e-7, 2.3),
            "ms": lambda: MoisseevShivamoggi.from_context(
                ctx, 0.9, Quantity(3e-25, POWER_DENSITY), kolmogorov_const=1.5),
        }[model]()
        ks = [float(k) for k, _ in rows]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        for k, energy in rows:
            expected = spectrum.evaluate(Quantity(float(k), WAVENUMBER)).value
            assert math.isclose(float(energy), expected, rel_tol=1e-12), (k, energy)


@pytest.mark.parametrize("argv, flag, value", [
    (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), "--window-days", "nan"),
    (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), "--window-days", "inf"),
    # finite in days, but not in seconds
    (("dissipation", "--kappa", "1e-5", "--slope", "1.8"), "--window-days", "1e305"),
    (("bound", "--slope", "1.8"), "--radius-lightminutes", "inf"),
    (("spectrum", "--model", "truncated", "--points", "3"), "--cutoff-k", "nan"),
    (("spectrum", "--model", "ms", "--points", "3"), "--epsilon", "inf"),
])
def test_non_finite_flag_is_validation_error(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be finite")
    assert len(err.splitlines()) == 1


class TestConfigFlag:
    def test_override_changes_result(self, capsys, tmp_path):
        config = tmp_path / "h.cfg"
        config.write_text("H = 77 km/s/Mpc\n", encoding="utf-8")
        code, out, _ = run(capsys, "transition", "--slope", "2.0", "--format", "csv",
                           "--config", str(config))
        assert code == 0
        _, out_default, _ = run(capsys, "transition", "--slope", "2.0", "--format", "csv")
        assert out != out_default

    def test_bad_config(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_factor = 9\n", encoding="utf-8")
        code, _, err = run(capsys, "transition", "--slope", "2.0",
                           "--config", str(config))
        assert code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "transition", "--slope", "2.0",
                           "--config", str(tmp_path / "missing.cfg"))
        assert code == 2
        assert err.startswith("error: cannot read config file")

    def test_unreadable_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "transition", "--slope", "2.0",
                           "--config", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot read config file")

    @staticmethod
    def pairs(out):
        return dict(line.split(None, 1) for line in out.splitlines()[1:])

    def test_window_and_radius_come_from_the_file(self, capsys, tmp_path):
        config = tmp_path / "span.cfg"
        config.write_text("ell = 16 lightminutes\nt = 2 days\n", encoding="utf-8")
        base = ("dissipation", "--kappa", "1e-5", "--slope", "1.8")
        code, out, _ = run(capsys, *base, "--config", str(config))
        assert code == 0
        values = self.pairs(out)
        assert values["ell_m"] == format_sig(2 * 8 * LIGHTMINUTE_M) == "2.88e11"
        assert values["window_days"] == "2"
        two_days = n0_value(CosmologyContext.default(), Quantity(2 * DAY_S, TIME), "computed")
        assert f"computed from constants {two_days.value:.3g})" in out.splitlines()[0]
        _, out_default, _ = run(capsys, *base)
        assert out.splitlines()[0] != out_default.splitlines()[0]

        # a flag on the command line still wins over the file
        code, out, _ = run(capsys, *base, "--config", str(config),
                           "--radius-lightminutes", "8")
        assert code == 0
        assert self.pairs(out)["ell_m"] == "1.44e11"
        assert self.pairs(out)["window_days"] == "2"

        _, bound_file, _ = run(capsys, "bound", "--slope", "1.7", "--config", str(config))
        _, bound_default, _ = run(capsys, "bound", "--slope", "1.7")
        assert self.pairs(bound_file)["kappa"] != self.pairs(bound_default)["kappa"]

    def test_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transition", "--slope", "1.8", "--warp", "9"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["constants", "--seed", "1"],
    ["constants", "--sigfigs", "4"],
    ["sweep", "--slopes", "1.8", "--kappas", "1", "--seed", "1"],
    ["dissipation", "--kappa", "1e-5", "--slope", "1.8", "--seed", "1"],
    ["bound", "--slope", "1.8", "--seed", "1"],
    ["spectrum", "--model", "boyer", "--seed", "1"],
    ["spectrum", "--model", "boyer", "--sigfigs", "4"],
    ["spectrum", "--model", "boyer", "--format", "csv"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    # --seed belongs to transition's --mc alone; spectrum always writes
    # full-precision CSV
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}" in err
    assert "Traceback" not in err


def outcome(call, argv):
    """What ``call(argv)`` returns (a namespace as its attributes), or the
    exit code if it exits, with all it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    if isinstance(result, argparse.Namespace):
        result = vars(result)
    return result, out.getvalue(), err.getvalue()


# argv that argparse parses or words: help, version, usage errors and the
# forms that are not exact --flag value pairs
USAGE_ARGVS = [
    [],
    ["-h"],
    ["--version"],
    ["warp"],
    ["--config", "x", "transition"],
    ["transition"],
    ["transition", "--slope", "1.8", "--warp", "9"],
    ["transition", "-h"],
    ["transition", "--slope", "x"],
    ["spectrum", "--model", "bad"],
    ["--", "transition", "--slope", "1.8"],
    ["transition", "--", "--slope", "1.8"],
    ["transition", "--slope", "1.8", "--", "9"],
    ["transition", "--slo", "1.8"],
    ["transition", "--slo", "x"],
    ["transition", "--slope=1.8", "--kappa=1e-5"],
    ["transition", "--slope=x"],
    ["sweep", "--slopes=1.7,1.8", "--kappas=1", "--outp=N"],
    ["transition", "--slope", "1.8", "--vers"],
    ["bound", "--slope", "1.8", "transition"],
]


def usage_id(argv):
    return " ".join(argv) or "<none>"


class TestDispatch:
    # main hands what follows a subcommand to that subcommand's parser
    # alone; build_parser().parse_args, which reads the whole argv at two
    # levels, is the oracle

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_corpus_parses_as_at_two_levels(self, argv):
        argv = [arg.replace("{data}", str(DATA)) for arg in argv]
        # as repr, a nan equals a nan and -0.0 differs from 0.0
        assert (repr(sorted(vars(cli._parse(argv)).items()))
                == repr(sorted(vars(build_parser().parse_args(argv)).items())))

    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=usage_id)
    def test_usage_matches_two_levels(self, argv):
        expected = outcome(build_parser().parse_args, argv)
        assert outcome(cli._parse, argv) == expected
        if not isinstance(expected[0], dict):  # help, version or a usage error
            assert outcome(main, argv) == expected


@functools.cache
def parent_parsers():
    """The parser as a chain of argparse parent parsers declared it before
    the command table, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="zpfcross",
        description="Vacuum/turbulence spectrum crossover scale and its error budget.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {zpfcross.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by subcommands; a subcommand takes only the flags it reads
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="constant override file")
    formatted = argparse.ArgumentParser(add_help=False, parents=[config])
    formatted.add_argument("--format", choices=("table", "csv"), default="table")
    figures = argparse.ArgumentParser(add_help=False, parents=[formatted])
    figures.add_argument("--sigfigs", type=cli._sigfigs, default=3, metavar="N",
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
    p.set_defaults(func=cli._cmd_constants)

    p = sub.add_parser("transition", help="closed-form transition scale", parents=[figures])
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.add_argument("--kappa", type=float, default=1.0, metavar="K")
    p.add_argument("--ekappa", type=float, default=0.0, metavar="E",
                   help="relative uncertainty of kappa")
    p.add_argument("--mc", type=int, default=0, metavar="N",
                   help="add a Monte Carlo check with N samples")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="random seed of the Monte Carlo check")
    p.set_defaults(func=cli._cmd_transition)

    p = sub.add_parser("sweep", help="sweep a slope x kappa grid", parents=[modes])
    p.add_argument("--slopes", type=cli._float_list, required=True, metavar="A1,A2,...")
    p.add_argument("--kappas", type=cli._float_list, required=True, metavar="K1,K2,...")
    p.add_argument("--outputs", type=lambda s: [t for t in s.split(",") if t],
                   default=(), metavar="epsilon,N,Ns")
    p.set_defaults(func=cli._cmd_sweep)

    p = sub.add_parser("dissipation", help="dissipation rate and solar counts",
                       parents=[budget])
    p.add_argument("--kappa", type=float, required=True, metavar="K")
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.set_defaults(func=cli._cmd_dissipation)

    p = sub.add_parser("bound", help="kappa and scale from a dissipation ceiling",
                       parents=[budget])
    p.add_argument("--ns", type=float, default=1e-12, metavar="NS",
                   help="ceiling in solar masses per window (default 1e-12)")
    p.add_argument("--slope", type=float, required=True, metavar="A")
    p.set_defaults(func=cli._cmd_bound)

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
    p.set_defaults(func=cli._cmd_spectrum)

    return parser, sub.choices


COMMANDS = ["constants", "transition", "sweep", "dissipation", "bound", "spectrum"]


class TestParentParserOracle:
    # the parser built from the command table words everything as the
    # parent-parser chain that it replaced; an oracle rather than pinned
    # text, because the help headings differ between Python versions

    @staticmethod
    def pair(name):
        """The parser named ``name`` (None: the whole parser), then its twin
        from the parent-parser chain."""
        if name is None:
            return build_parser(), parent_parsers()[0]
        return cli._parsers()[1][name], parent_parsers()[1][name]

    @pytest.mark.parametrize("name", [None] + COMMANDS)
    def test_help_and_usage(self, name):
        parser, parent = self.pair(name)
        assert parser.format_help() == parent.format_help()
        assert parser.format_usage() == parent.format_usage()

    @pytest.mark.parametrize("name", [None] + COMMANDS)
    @pytest.mark.parametrize("argv", [["--version"], ["--warp"]], ids=usage_id)
    def test_version_and_errors(self, name, argv):
        parser, parent = self.pair(name)
        assert outcome(parser.parse_args, argv) == outcome(parent.parse_args, argv)

    @pytest.mark.parametrize("argv", USAGE_ARGVS, ids=usage_id)
    def test_usage_argv(self, argv):
        # as repr, a nan equals a nan
        assert (repr(outcome(build_parser().parse_args, argv))
                == repr(outcome(parent_parsers()[0].parse_args, argv)))


# values that every subcommand's parser accepts as they stand, none empty
# or starting with '-'
FLOAT = st.one_of(st.floats(min_value=0.0), st.just(math.nan)).map(repr)
FLOATS = st.lists(FLOAT, min_size=1, max_size=3).map(",".join)
INTEGER = st.integers(0, 10 ** 30).map(str)
WELL_FORMED = {
    "--config": st.text(min_size=1).filter(lambda text: not text.startswith("-")),
    "--format": st.sampled_from(["table", "csv"]),
    "--sigfigs": st.integers(1, 99).map(str),
    "--n0": st.sampled_from(["paper", "computed"]),
    "--window-days": FLOAT, "--radius-lightminutes": FLOAT,
    "--slope": FLOAT, "--kappa": FLOAT, "--ekappa": FLOAT,
    "--mc": INTEGER, "--seed": INTEGER,
    "--slopes": FLOATS, "--kappas": FLOATS,
    "--outputs": st.lists(st.sampled_from(["epsilon", "N", "Ns", "bogus"]),
                          min_size=1, max_size=4).map(",".join),
    "--ns": FLOAT,
    "--model": st.sampled_from(["boyer", "truncated", "powerlaw", "ms"]),
    "--gamma": FLOAT, "--epsilon": FLOAT, "--kolmogorov-const": FLOAT,
    "--cutoff-k": FLOAT, "--kmin": FLOAT, "--kmax": FLOAT,
    "--points": INTEGER,
}
# each subcommand's required flags, then its optional ones
PAIRS = {
    "constants": ((), ("--config", "--format")),
    "transition": (("--slope",), ("--config", "--format", "--sigfigs", "--kappa",
                                  "--ekappa", "--mc", "--seed")),
    "sweep": (("--slopes", "--kappas"), ("--config", "--format", "--sigfigs", "--n0",
                                         "--outputs")),
    "dissipation": (("--kappa", "--slope"), ("--config", "--format", "--sigfigs", "--n0",
                                             "--window-days", "--radius-lightminutes")),
    "bound": (("--slope",), ("--config", "--format", "--sigfigs", "--n0", "--window-days",
                             "--radius-lightminutes", "--ns")),
    "spectrum": (("--model",), ("--config", "--slope", "--kappa", "--gamma", "--epsilon",
                                "--kolmogorov-const", "--cutoff-k", "--kmin", "--kmax",
                                "--points")),
}


@st.composite
def well_formed_argvs(draw):
    """A subcommand and ``--flag value`` pairs of its own flags in any
    order: every required flag, optional flags or none, some repeated."""
    command = draw(st.sampled_from(sorted(PAIRS)))
    required, optional = PAIRS[command]
    flags = draw(st.permutations(
        list(required) + draw(st.lists(st.sampled_from(required + optional), max_size=8))))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(WELL_FORMED[flag])]
    return argv


def table_flags(name):
    """The options that ``cli._COMMANDS`` declares for subcommand ``name``,
    and the required ones among them."""
    flags = cli._COMMANDS[name][2]
    return ({option for option, _ in flags},
            {option for option, spec in flags if spec.get("required")})


def subcommand_parses(argv):
    """``cli._parse``'s outcome for ``argv`` and the number of times it
    called the subcommand parser's ``parse_known_args``."""
    command = cli._parsers()[1][argv[0]]
    with mock.patch.object(command, "parse_known_args",
                           wraps=command.parse_known_args) as parse_known_args:
        result = outcome(cli._parse, argv)
    return result, parse_known_args.call_count


class TestFlagTable:
    # a subcommand followed by well-formed --flag value pairs is read from
    # its flag table without argparse; build_parser().parse_args is the oracle

    def test_pairs_name_every_flag_of_each_subcommand(self):
        assert sorted(PAIRS) == sorted(cli._COMMANDS)
        for name in cli._COMMANDS:
            flags, required = table_flags(name)
            assert flags == set().union(*PAIRS[name]), name
            assert required == set(PAIRS[name][0]), name

    @settings(max_examples=300, deadline=None)
    @given(argv=well_formed_argvs())
    def test_well_formed_pairs_are_read_without_argparse(self, argv):
        expected = outcome(build_parser().parse_args, argv)
        result, argparse_calls = subcommand_parses(argv)
        assert repr(result) == repr(expected)  # repr: nan == nan, and the key order
        assert argparse_calls == 0

    @pytest.mark.parametrize("argv", [
        ["transition", "--slope", "1.8", "--ekappa", "-0.1"],
        ["transition", "--slope=1.8", "--kappa", "1e-5"],
        ["transition", "--slo", "1.8"],
        ["transition", "--slope", "1.8", "--", "9"],
        ["transition", "-h", "1.8"],
        ["transition", "--kappa", "1e-5"],
        ["constants", "--format", "xml"],
        ["transition", "--slope", "1.8", "--sigfigs", "0"],
        ["transition", "--slope", "1.8", "--kappa"],
        ["sweep", "--slopes", "1.8", "--kappas", "1", "--outputs", ""],
    ], ids=lambda argv: " ".join(argv))
    def test_any_other_argv_reaches_argparse(self, argv):
        expected = outcome(build_parser().parse_args, argv)
        result, argparse_calls = subcommand_parses(argv)
        assert result == expected
        assert argparse_calls == 1


class TestSigfigsFlag:
    @pytest.mark.parametrize("value", ["0", "-1", "three"])
    def test_rejected_below_one(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["transition", "--slope", "1.8", "--sigfigs", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --sigfigs" in err
        assert "Traceback" not in err

    def test_one_is_accepted(self, capsys):
        code, out, _ = run(capsys, "transition", "--slope", "1.7", "--sigfigs", "1")
        assert code == 0
        values = dict(line.split(None, 1) for line in out.splitlines())
        assert values["lambda0_m"] == "2e1"

    @pytest.mark.parametrize("command", [
        ("transition", "--slope", "1.8"),
        ("sweep", "--slopes", "1.8", "--kappas", "1e-5"),
        ("dissipation", "--kappa", "1e-5", "--slope", "1.8")])
    def test_beyond_767_prints_as_767(self, capsys, command):
        # no double has more than 767 significant digits, and format()
        # refuses a precision past 2**31 - 1
        outputs = set()
        for value in ("767", "2147483648", str(2 ** 70)):
            code, out, err = run(capsys, *command, "--sigfigs", value)
            assert (code, err) == (0, "")
            outputs.add(out)
        assert len(outputs) == 1


class TestFixedCosts:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_outputs_default_is_immutable(self):
        args = build_parser().parse_args(["sweep", "--slopes", "1.7", "--kappas", "1"])
        assert args.outputs == ()

    @pytest.mark.parametrize("module", ["pathlib", "fractions", "decimal", "dataclasses",
                                        "inspect"])
    def test_cold_start_does_not_import(self, module):
        # -S: a site-packages .pth file may import a module before zpfcross
        fresh_process("import sys\n"
                      "import zpfcross.cli\n"
                      f"assert {module!r} not in sys.modules, '{module} was imported'\n",
                      "-S")

    def test_cold_start_does_not_import_numpy(self):
        fresh_process("import sys\n"
                      "import zpfcross.cli\n"
                      "from zpfcross.constants import CosmologyContext\n"
                      "from zpfcross.transition import transition_scale\n"
                      "zpfcross.cli.build_parser()\n"
                      "transition_scale(1.8, 1e-5, CosmologyContext.default())\n"
                      "assert 'numpy' not in sys.modules, 'numpy was imported'\n")

    def test_sweep_does_not_import_numpy(self):
        fresh_process("import contextlib, io, sys\n"
                      "from zpfcross.cli import main\n"
                      "with contextlib.redirect_stdout(io.StringIO()):\n"
                      "    assert main(['sweep', '--slopes', '1.5,2.9,3.5', "
                      "'--kappas', '1,1e-300,2',\n"
                      "                 '--outputs', 'epsilon,N,Ns', '--format', 'csv']) == 0\n"
                      "assert 'numpy' not in sys.modules, 'numpy was imported'\n")

    @pytest.mark.parametrize("argv, builds", [
        (["transition", "--slope", "1.8", "--kappa", "1e-5"], False),
        (["dissipation", "--kappa", "1e-5", "--slope", "1.8", "--n0", "computed"], False),
        (["bound", "--slope", "1.8"], False),
        (["sweep", "--slopes", "1.7,1.8", "--kappas", "1e-5,1"], False),
        (["constants"], False),
        (["transition", "-h"], True),
        (["transition", "--slope", "x"], True),
    ], ids=lambda value: usage_id(value) if isinstance(value, list) else None)
    def test_well_formed_query_builds_no_parser(self, argv, builds):
        # -S: a site-packages .pth file may build a parser before zpfcross
        out = fresh_process(
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from zpfcross.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(code, len(built))\n", "-S")
        code, built = map(int, out.split())
        assert (code == 0) == (argv[-1] != "x")
        assert (built > 0) == builds, f"{built} parsers built"


def fresh_process(code, *flags):
    """Run ``code`` in a new interpreter, with ``flags``, that imports
    zpfcross from the tested tree; its stdout, once it exits 0."""
    src = str(Path(zpfcross.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout
