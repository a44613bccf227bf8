"""Acceptance checks for the full pipeline, one criterion per class.

Run under pytest (`pytest tests/test_acceptance.py -v`) or standalone
(`python3 tests/test_acceptance.py`) to get one PASS/FAIL line per
criterion.

Criterion 1 compares sigma at the resolution the published table
prints it in: whole metres, rounded down. Each published lambda0 times
the computed sigma/lambda0 gives 1.379, 4.638, 46.53, 15.94, 51.36 and
465.48 m; rounded down these are the six published entries (1, 4, 46,
15, 51, 465), while rounding to nearest would give 5, 47 and 16 for
three of them. An entry x therefore says only that sigma lies in
[x, x + 1) m, and the 10 percent tolerance is applied to that interval:
0.9*x <= sigma <= 1.1*(x + 1 m). For the one-digit entries (1 m and
4 m, where the propagation formula gives 1.38 m and 4.68 m) comparing
against x alone would demand more precision than the table holds.
"""

import contextlib
import io
import math

import pytest
from scipy.integrate import quad

from zpfcross import (
    Boyer,
    CosmologyContext,
    MoisseevShivamoggi,
    PowerLawTurbulence,
    amplitude_from_kappa,
    gamma_from_slope,
    horizon_injection_rate,
    kappa_from_count,
    kappa_from_solar_bound,
    kolmogorov_reference_scale,
    log_form_constants,
    log_form_scale,
    monte_carlo_scale,
    n0_value,
    numeric_crossover,
    slope_from_gamma,
    solar_budget,
    transition_scale,
)
from zpfcross.cli import main as cli_main
from zpfcross.constants import CRITICAL_DENSITY, HUBBLE_RADIUS, MPC_M
from zpfcross.quantity import Quantity, WAVENUMBER

CTX = CosmologyContext.default()
C = 2.99792458e8


def rel(x, y):
    return abs(x - y) / abs(y)


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# criterion 1: published transition table via the sweep CLI
C1_CASES = [
    # (a, kappa, lambda_ref_m, sigma_ref_m)
    (1.7, 1.0, 16.0, 1.0),
    (1.8, 1.0, 53.0, 4.0),
    (2.0, 1.0, 517.0, 46.0),
    (1.7, 1e-5, 185.0, 15.0),
    (1.8, 1e-5, 587.0, 51.0),
    (2.0, 1e-5, 5172.0, 465.0),
]


def sweep_rows():
    code, out = run_cli("sweep", "--slopes", "1.7,1.8,2.0", "--kappas", "1,1e-5",
                        "--format", "csv")
    assert code == 0
    rows = {}
    lines = out.strip().splitlines()
    assert lines[0] == "a,kappa,lambda0_m,sigma_m,k0_per_m"
    for line in lines[1:]:
        a, kappa, lam, sigma, k0 = (float(tok) for tok in line.split(","))
        rows[(a, kappa)] = (lam, sigma)
    return rows


class TestCriterion1PublishedTable:
    def test_lambda_within_2_percent(self):
        rows = sweep_rows()
        devs = {case[:2]: rel(rows[case[:2]][0], case[2]) for case in C1_CASES}
        ok = all(d <= 0.02 for d in devs.values())
        report("C1/lambda", ok, f"max deviation {max(devs.values()):.3%} (tolerance 2%)")
        assert ok, devs

    @pytest.mark.parametrize("a,kappa,lam_ref,sigma_ref", C1_CASES,
                             ids=[f"a{c[0]}-k{c[1]:g}" for c in C1_CASES])
    def test_sigma_within_10_percent(self, a, kappa, lam_ref, sigma_ref):
        # the table prints sigma in whole metres, rounded down: an entry x
        # stands for [x, x + 1) m, and the 10% tolerance widens that interval
        computed = sweep_rows()[(a, kappa)][1]
        low, high = 0.9 * sigma_ref, 1.1 * (sigma_ref + 1.0)
        ok = low <= computed <= high
        detail = (f"computed {computed:.4g} m vs published {sigma_ref:g} m, "
                  f"which stands for [{sigma_ref:g}, {sigma_ref + 1.0:g}) m; "
                  f"accepted {low:.4g} .. {high:.4g} m (tolerance 10%)")
        report(f"C1/sigma a={a} kappa={kappa:g}", ok, detail)
        assert ok, detail


class TestCriterion2DissipationBound:
    def test_a17(self):
        kappa, result = kappa_from_solar_bound(1e-12, 1.7, CTX, n0_mode="paper")
        ok = 0.5 <= kappa / 9e-18 <= 2.0 and rel(result.lambda0.value, 67e3) <= 0.15
        report("C2/a=1.7", ok,
               f"kappa {kappa:.2e} (x{kappa / 9e-18:.2f} of 9e-18), "
               f"lambda0 {result.lambda0.value / 1e3:.1f} km vs 67 km")
        assert ok

    def test_a18(self):
        kappa, result = kappa_from_solar_bound(1e-12, 1.8, CTX, n0_mode="paper")
        ok = 1.0 / 3.0 <= kappa / 2e-20 <= 3.0 and rel(result.lambda0.value, 630e3) <= 0.15
        report("C2/a=1.8", ok,
               f"kappa {kappa:.2e} (x{kappa / 2e-20:.2f} of 2e-20), "
               f"lambda0 {result.lambda0.value / 1e3:.0f} km vs 630 km")
        assert ok


class TestCriterion3OracleEquivalence:
    GRID_A = (1.6, 1.7, 5.0 / 3.0, 1.8, 2.0, 2.5)
    GRID_KAPPA = (1.0, 1e-5, 1e-10, 1e-17, 1e-20)

    def test_bisection_matches_closed_form(self):
        vac = Boyer.from_context(CTX)
        worst = 0.0
        for a in self.GRID_A:
            for kappa in self.GRID_KAPPA:
                turb = PowerLawTurbulence.from_kappa(CTX, kappa, a)
                k_numeric = numeric_crossover(vac, turb, CTX).value
                k_closed = transition_scale(a, kappa, CTX).k0.value
                worst = max(worst, rel(k_numeric, k_closed))
        ok = worst <= 1e-9
        report("C3", ok, f"worst |k0_bisect/k0_closed - 1| = {worst:.2e} "
                         f"over {len(self.GRID_A) * len(self.GRID_KAPPA)} cells (tol 1e-9)")
        assert ok


class TestCriterion4UncertaintyTripleCheck:
    @staticmethod
    def lambda_of(G, c, hbar, H, kappa, a):
        inner = (8.0 * math.pi * G * hbar / (3.0 * (a - 1.0) * kappa * c ** 2 * H)
                 * (c / H) ** a)
        return 2.0 * math.pi * inner ** (1.0 / (3.0 + a))

    def fd_rel_sigma(self, a):
        # central-difference gradient through the closed form
        names = ("G", "c", "hbar", "H")
        x0 = [CTX[n].value for n in names] + [1.0]
        sigmas = [CTX[n].rel_sigma * CTX[n].value for n in names] + [0.0]
        f0 = self.lambda_of(*x0, a)
        var = 0.0
        for i, sigma in enumerate(sigmas):
            if sigma == 0.0:
                continue
            h = x0[i] * 1e-6
            hi, lo = x0.copy(), x0.copy()
            hi[i] += h
            lo[i] -= h
            dfdx = (self.lambda_of(*hi, a) - self.lambda_of(*lo, a)) / (2.0 * h)
            var += (dfdx * sigma) ** 2
        return math.sqrt(var) / f0

    def test_analytic_vs_finite_difference(self):
        worst = max(rel(transition_scale(a, 1.0, CTX).rel_sigma, self.fd_rel_sigma(a))
                    for a in (1.7, 2.0))
        ok = worst <= 1e-6
        report("C4/fd", ok, f"worst analytic-vs-gradient deviation {worst:.2e} (tol 1e-6)")
        assert ok

    def test_analytic_vs_monte_carlo(self):
        worst = 0.0
        for a in (1.7, 2.0):
            analytic = transition_scale(a, 1.0, CTX).rel_sigma
            mc = monte_carlo_scale(a, 1.0, 100000, 20260810, CTX)
            worst = max(worst, rel(mc.rel_sigma, analytic))
        ok = worst <= 0.03
        report("C4/mc", ok, f"worst MC-vs-analytic deviation {worst:.2%} "
                            f"(n=1e5, seed 20260810, tol 3%)")
        assert ok


class TestCriterion5CascadeLimits:
    def test_kolmogorov_limit(self):
        ms = MoisseevShivamoggi.from_context(CTX, 1e6)
        rho = CRITICAL_DENSITY.value(CTX)
        eps = horizon_injection_rate(CTX).value
        radius = HUBBLE_RADIUS.value(CTX)
        worst = 0.0
        for i in range(21):
            k = (1.0 / radius) * 10.0 ** (0.5 * i)  # spans 1/R .. 1e10/R
            kolmo = rho ** (1.0 / 3.0) * eps ** (2.0 / 3.0) * k ** (-5.0 / 3.0)
            worst = max(worst, rel(ms.evaluate(Quantity(k, WAVENUMBER)).value, kolmo))
        ok = worst <= 1e-3
        report("C5/kolmogorov", ok, f"worst deviation {worst:.2e} at gamma=1e6 (tol 0.1%)")
        assert ok

    def test_kadomtsev_petviashvili_limit(self):
        ms = MoisseevShivamoggi.from_context(CTX, 1.0)
        eps = horizon_injection_rate(CTX).value
        worst = 0.0
        for k in (1e-20, 1e-5, 1.0, 1e5, 1e20):
            kp = eps / C * k ** -2
            worst = max(worst, rel(ms.evaluate(Quantity(k, WAVENUMBER)).value, kp))
        ok = worst <= 1e-12
        report("C5/kp", ok, f"worst deviation {worst:.2e} at gamma=1 (tol 1e-12)")
        assert ok


class TestCriterion6Roundtrips:
    def test_gamma_slope_roundtrip(self):
        # a -> gamma -> a needs a > 5/3, where the adiabatic index is
        # physical (gamma > 1/3); below 5/3 the index is negative and
        # slope_from_gamma's domain rightly excludes it
        worst = max(rel(slope_from_gamma(gamma_from_slope(a)), a)
                    for a in (1.7, 1.8, 2.0, 2.5))
        worst = max(worst, max(rel(gamma_from_slope(slope_from_gamma(g)), g)
                               for g in (0.6, 1.0, 2.0, 7.0)))
        ok = worst <= 1e-12
        report("C6/gamma-a", ok, f"worst roundtrip error {worst:.2e} (tol 1e-12)")
        assert ok

    def test_kappa_count_roundtrip(self):
        worst = 0.0
        for a in (1.7, 1.8, 2.0):
            for kappa in (1e-20, 1e-10, 1e-5, 1.0):
                budget = solar_budget(kappa, a, CTX, n0_mode="paper")
                worst = max(worst, rel(kappa_from_count(budget.n_solar, budget.n0, a),
                                       kappa))
        ok = worst <= 1e-12
        report("C6/kappa-N", ok, f"worst roundtrip error {worst:.2e} (tol 1e-12)")
        assert ok

    def test_budget_quadrature(self):
        # adaptive quadrature (log substitution) of the budget integral
        a, kappa = 1.8, 1.0
        amp = amplitude_from_kappa(kappa, a, CTX).value
        u0 = math.log(1.0 / HUBBLE_RADIUS.value(CTX))
        numeric, _ = quad(lambda u: amp * math.exp((1.0 - a) * u), u0, math.inf,
                          epsabs=0.0, epsrel=1e-9)
        closed = kappa * CRITICAL_DENSITY.value(CTX) * C ** 2
        deviation = rel(numeric, closed)
        ok = deviation <= 1e-6
        report("C6/budget", ok, f"quadrature vs closed form {deviation:.2e} (tol 1e-6)")
        assert ok


class TestCriterion7LogFormIdentity:
    def test_identity_on_grid(self):
        worst = 0.0
        for a in (1.6, 1.7, 5.0 / 3.0, 1.8, 2.0, 2.5):
            for kappa in (1.0, 1e-5, 1e-10, 1e-17, 1e-20):
                closed = transition_scale(a, kappa, CTX).lambda0.value
                worst = max(worst, rel(log_form_scale(a, kappa, CTX).value, closed))
        ok = worst <= 1e-12
        report("C7/identity", ok, f"worst log-form deviation {worst:.2e} (tol 1e-12)")
        assert ok

    def test_constants(self):
        c1, c2 = log_form_constants(CTX)
        ok = abs(c1 - 98.05) <= 0.01 and abs(-c2 - 60.05) <= 0.01
        report("C7/constants", ok, f"C1 = {c1:.6f}, -C2 = {-c2:.6f} "
                                   f"(want 98.05 +/- 0.01, 60.05 +/- 0.01)")
        assert ok


class TestCriterion8DocumentedDiscrepancies:
    def test_computed_n0(self):
        n0 = n0_value(CTX, n0_mode="computed").value
        ok = rel(n0, 2e9) <= 0.2
        report("C8/n0", ok, f"computed N0 = {n0:.4g} vs 2e9 within 20% "
                            f"(published mode uses 1e57)")
        assert ok

    def test_provenance_note_in_report_output(self):
        code, out = run_cli("dissipation", "--kappa", "1e-5", "--slope", "1.7")
        first = out.splitlines()[0]
        ok = (code == 0 and first.startswith("# N0 mode: paper")
              and "computed from constants" in first and "1e+57" in first)
        report("C8/note", ok, f"provenance line: {first!r}")
        assert ok

    def test_bound_readings(self):
        # README, "Reproducing the paper's bound numbers": as coded, lambda0
        # falls about 10% short of the published 67 km and 630 km; each of
        # the two readings that fit (N halved, R at h = 1 in the count alone)
        # reproduces both to 1.5%, and neither is adopted
        radius_h1 = C / (100e3 / MPC_M)
        gaps = {}
        for a, published in ((1.7, 67e3), (1.8, 630e3)):
            counts = {"as coded": 1e-12, "N halved": 5e-13,
                      "R at h=1": 1e-12 * (radius_h1 / HUBBLE_RADIUS.value(CTX)) ** 3}
            for reading, ns in counts.items():
                _, result = kappa_from_solar_bound(ns, a, CTX, n0_mode="paper")
                gaps.setdefault(reading, []).append(result.lambda0.value / published - 1.0)
        ok = all(-0.15 <= gap < -0.05 if reading == "as coded" else abs(gap) <= 0.015
                 for reading, pair in gaps.items() for gap in pair)
        report("C8/bound", ok, "lambda0 gap at a = 1.7 / 1.8: " + "; ".join(
            f"{reading} {lo:+.1%} / {hi:+.1%}" for reading, (lo, hi) in gaps.items()))
        assert ok

    def test_historical_kolmogorov_check(self):
        # 12*(1e-5)**(-3/14) evaluates to 141.45 m, not the misprinted 120 m
        value = kolmogorov_reference_scale(1e-5).value
        expected = 12.0 * (1e-5) ** (-3.0 / 14.0)
        ok = rel(value, expected) < 1e-12 and rel(value, 141.5) < 1e-3 and value > 140.0
        report("C8/historical", ok, f"12*kappa**(-3/14) at kappa=1e-5 -> {value:.2f} m")
        assert ok


def _run_standalone():
    import traceback

    classes = [
        TestCriterion1PublishedTable,
        TestCriterion2DissipationBound,
        TestCriterion3OracleEquivalence,
        TestCriterion4UncertaintyTripleCheck,
        TestCriterion5CascadeLimits,
        TestCriterion6Roundtrips,
        TestCriterion7LogFormIdentity,
        TestCriterion8DocumentedDiscrepancies,
    ]
    failed = 0
    for cls in classes:
        instance = cls()
        for name in dir(instance):
            if not name.startswith("test_"):
                continue
            method = getattr(instance, name)
            cases = C1_CASES if name == "test_sigma_within_10_percent" else [()]
            for case in cases:
                try:
                    method(*case)
                except AssertionError:
                    failed += 1  # the report() call above already printed FAIL
                except Exception:
                    failed += 1
                    traceback.print_exc()
    print(f"acceptance: {failed} failing check(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(_run_standalone())
