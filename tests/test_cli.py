import math

import pytest

from zpfcross import transition
from zpfcross.cli import main
from zpfcross.quantity import POWER_DENSITY, Quantity, WAVENUMBER
from zpfcross.spectra import Boyer, MoisseevShivamoggi, PowerLawTurbulence, TruncatedBoyer


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

        monkeypatch.setattr(transition.np.random, "default_rng", lambda seed: NoMemory())
        code, out, err = run(capsys, "transition", "--slope", "1.8", "--mc", "100000000")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "100000000" in err
        assert len(err.splitlines()) == 1

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


class TestDissipationCommand:
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
        code, _, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e-200",
                           "--radius-lightminutes", "1e-100")
        assert code == 3
        assert err.startswith("numeric failure:")

    def test_count_out_of_float_range(self, capsys):
        # N = Ns*(R/ell)**3 leaves the float range before kappa is formed
        code, out, err = run(capsys, "bound", "--slope", "2.9", "--ns", "1e300",
                             "--radius-lightminutes", "1e-300")
        assert code in (2, 3)
        assert err.startswith(("error:", "numeric failure:"))
        assert "Traceback" not in err
        assert out == ""

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

    def test_unknown_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transition", "--slope", "1.8", "--warp", "9"])
        assert exc.value.code == 2


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
