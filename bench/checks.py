"""Output checker and failure accounting.

An operation fails when an exception escapes ``main``, the exit code is
outside {0, 2, 3}, stderr carries a traceback, a sweep prints fewer rows
than |slopes|*|kappas| (these are *contract* failures), or a printed value
disagrees with the reference in ``reference.py`` (a *value* failure).
An out-of-domain input that exits 2 with an ``error:`` message succeeds.
Full-precision output (CSV, library results) is compared at the
acceptance-suite tolerances; table output to its printed significant
figures.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import Dict, List, Optional, Tuple

import reference as ref

CONTRACT = "contract"
VALUE = "value"
Verdict = Optional[Tuple[str, str]]  # None on success, else (category, reason)

BASE_COLUMNS = ["a", "kappa", "lambda0_m", "sigma_m", "k0_per_m"]
EXTRA_COLUMNS = {"epsilon": "epsilon_w_m3", "N": "n_solar", "Ns": "ns_solar"}
_TABLE_SPLIT = re.compile(r"\s{2,}")


class Mismatch(Exception):
    """A printed value or layout that disagrees with the reference."""


def close(value: float, expected: float, tol: float) -> bool:
    if expected == 0.0:
        return value == 0.0
    return abs(value - expected) <= tol * abs(expected)


def close_sig(text: str, expected: float, sigfigs: int, rel_tol: float = 0.0) -> bool:
    """``text`` is ``expected`` rounded to ``sigfigs`` significant figures,
    give or take ``rel_tol`` relative to ``expected``."""
    value = float(text)
    if expected == 0.0:
        return value == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - sigfigs + 1)
    return (abs(value - expected)
            <= half_unit * (1.0 + 1e-9) + (1e-12 + rel_tol) * abs(expected))


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _field(pairs: Dict[str, str], name: str) -> str:
    if name not in pairs:
        raise Mismatch(f"missing field {name}")
    return pairs[name]


def _sig(pairs, name, expected, sigfigs, rel_tol=0.0) -> None:
    text = _field(pairs, name)
    _expect(close_sig(text, expected, sigfigs, rel_tol),
            f"{name} = {text}, reference {expected!r}")


def parse_pairs(out: str, fmt: str) -> Dict[str, str]:
    """``name value`` lines (table) or a header and a value line (csv)."""
    lines = [line for line in out.splitlines() if line and not line.startswith("#")]
    if fmt == "csv":
        _expect(len(lines) == 2, f"expected 2 csv lines, got {len(lines)}")
        names, values = lines[0].split(","), lines[1].split(",")
        _expect(len(names) == len(values), "csv header and values differ in length")
        return dict(zip(names, values))
    pairs = {}
    for line in lines:
        parts = line.split()
        _expect(len(parts) == 2, f"bad table line {line!r}")
        pairs[parts[0]] = parts[1]
    return pairs


# per-command checkers; each raises Mismatch

def _sweep_cells(p) -> List[Tuple[float, float]]:
    return [(a, k) for a in p["slopes"] for k in p["kappas"]]


def sweep_row_count(out: str) -> int:
    lines = out.splitlines()
    return max(0, len(lines) - 1)


def check_sweep(p: dict, out: str) -> None:
    k = ref.Constants()
    columns = BASE_COLUMNS + [EXTRA_COLUMNS[o] for o in ("epsilon", "N", "Ns")
                              if o in p["outputs"]]
    lines = out.splitlines()
    table = p["format"] == "table"
    header = _TABLE_SPLIT.split(lines[0].strip()) if table else lines[0].split(",")
    _expect(header == columns, f"header {header} != {columns}")
    n0 = ref.n0(k, p["n0"], k["t"])
    for (a, kappa), line in zip(_sweep_cells(p), lines[1:]):
        cells = _TABLE_SPLIT.split(line.strip()) if table else line.split(",")
        if table:
            _expect(close_sig(cells[0], a, 6) and close_sig(cells[1], kappa, 6),
                    f"row {cells[:2]} for cell ({a}, {kappa})")
            is_error = len(cells) == 3 and cells[2].startswith("<error:")
        else:
            _expect(float(cells[0]) == a and float(cells[1]) == kappa,
                    f"row {cells[:2]} for cell ({a}, {kappa})")
            is_error = all(c == "nan" for c in cells[2:])
        in_domain = 1.0 < a < 3.0 and 0.0 < kappa <= 1.0
        if is_error:
            _expect(not in_domain or p["edge"], f"error row for valid cell ({a}, {kappa})")
            continue
        _expect(in_domain, f"values for out-of-domain cell ({a}, {kappa})")
        _expect(len(cells) == len(columns), f"row has {len(cells)} cells")
        lam = ref.lambda0(a, kappa, k)
        n_sol = ref.n_solar(a, kappa, n0)
        expected = {"lambda0_m": lam, "sigma_m": lam * ref.rel_sigma(a, k),
                    "k0_per_m": 2.0 * math.pi / lam, "epsilon_w_m3": ref.epsilon(a, kappa, k),
                    "n_solar": n_sol, "ns_solar": ref.ns_solar(n_sol, k["ell"], k)}
        for name, text in zip(columns[2:], cells[2:]):
            if table:
                ok = close_sig(text, expected[name], p["sigfigs"])
            else:
                ok = close(float(text), expected[name], ref.TOL_CLOSED)
            _expect(ok, f"{name} = {text} at ({a}, {kappa}), reference {expected[name]!r}")


def check_spectrum(p: dict, out: str) -> None:
    k = ref.Constants()
    lines = out.splitlines()
    _expect(lines[:1] == ["k,E"], "missing k,E header")
    _expect(len(lines) == p["points"] + 1, f"{len(lines) - 1} points, expected {p['points']}")
    grid = ref.spectrum_grid(p["kmin"], p["kmax"], p["points"])
    model = p["model"]
    for expected_k, line in zip(grid, lines[1:]):
        kw_text, e_text = line.split(",")
        kw = float(kw_text)
        _expect(close(kw, expected_k, ref.TOL_CLOSED), f"k = {kw_text}, expected {expected_k!r}")
        if model == "boyer":
            energy = ref.boyer(kw, k)
        elif model == "truncated":
            energy = ref.truncated(kw, p["cutoff"], k)
        elif model == "powerlaw":
            energy = ref.powerlaw(kw, p["slope"], p["kappa"], k)
        else:
            energy = ref.moisseev_shivamoggi(kw, p["gamma"], k, p.get("epsilon"),
                                             p.get("const", 1.0))
        _expect(close(float(e_text), energy, ref.TOL_CLOSED),
                f"E({kw_text}) = {e_text}, reference {energy!r}")


def _check_scale(pairs, a, kappa, k, sig, e_kappa=0.0) -> None:
    """The lambda0 and sigma fields shared by ``transition`` and ``bound``."""
    lam = ref.lambda0(a, kappa, k)
    _sig(pairs, "a", a, 6)
    _sig(pairs, "lambda0_m", lam, sig)
    _sig(pairs, "sigma_m", lam * ref.rel_sigma(a, k, e_kappa), sig)


def check_transition(p: dict, out: str) -> None:
    k = ref.Constants(p["overrides"])
    a, kappa, e_kappa, sig = p["a"], p["kappa"], p["e_kappa"], p["sigfigs"]
    pairs = parse_pairs(out, p["format"])
    _sig(pairs, "kappa", kappa, 6)
    _check_scale(pairs, a, kappa, k, sig, e_kappa)
    _sig(pairs, "rel_sigma", ref.rel_sigma(a, k, e_kappa), sig)
    _sig(pairs, "k0_per_m", ref.k0(a, kappa, k), sig)
    for name, value in ref.sigma_breakdown(a, k, e_kappa).items():
        _sig(pairs, f"sigma_{name}", value, sig)
    if p["mc"]:
        mean, rel = ref.mc_moments(a, kappa, k, e_kappa, "lognormal")
        _sig(pairs, "mc_mean_m", mean, sig, ref.mc_mean_tolerance(rel, p["mc"]))
        _sig(pairs, "mc_rel_sigma", rel, sig, ref.mc_tolerance(p["mc"]))
        _expect(_field(pairs, "mc_rejected") == "0", "lognormal sampling rejected draws")


def _check_n0_note(out: str, mode: str, window_s: float, k: ref.Constants) -> None:
    first = out.splitlines()[0] if out else ""
    match = re.match(r"# N0 mode: (\w+) \(published (\S+), computed from constants (\S+)\)$",
                     first)
    _expect(match is not None, f"missing N0 provenance line, got {first!r}")
    _expect(match.group(1) == mode, f"N0 mode {match.group(1)}, expected {mode}")
    _expect(float(match.group(2)) == ref.PAPER_N0, "published N0")
    _expect(close_sig(match.group(3), ref.n0(k, "computed", window_s), 3), "computed N0")


def check_dissipation(p: dict, out: str) -> None:
    k = ref.Constants()
    a, kappa, sig = p["a"], p["kappa"], p["sigfigs"]
    window_s = p["window_days"] * ref.DAY_S
    ell = p["radius_lm"] * ref.LIGHTMINUTE_M
    _check_n0_note(out, p["n0"], window_s, k)
    pairs = parse_pairs(out, p["format"])
    n0 = ref.n0(k, p["n0"], window_s)
    n_sol = ref.n_solar(a, kappa, n0)
    _sig(pairs, "kappa", kappa, 6)
    _sig(pairs, "a", a, 6)
    _sig(pairs, "epsilon_w_m3", ref.epsilon(a, kappa, k), sig)
    _sig(pairs, "epsilon_rel_sigma", ref.epsilon_rel_sigma(k), sig)
    _sig(pairs, "n0", n0, sig)
    _sig(pairs, "n_solar", n_sol, sig)
    _sig(pairs, "ns_solar", ref.ns_solar(n_sol, ell, k), sig)
    _sig(pairs, "window_days", p["window_days"], sig)
    _sig(pairs, "ell_m", ell, sig)


def check_bound(p: dict, out: str) -> None:
    k = ref.Constants()
    a, sig = p["a"], p["sigfigs"]
    window_s = p["window_days"] * ref.DAY_S
    ell = p["radius_lm"] * ref.LIGHTMINUTE_M
    _check_n0_note(out, p["n0"], window_s, k)
    pairs = parse_pairs(out, p["format"])
    kappa = ref.kappa_bound(p["ns"], a, ref.n0(k, p["n0"], window_s), ell, k)
    _sig(pairs, "ns_bound", p["ns"], 6)
    _sig(pairs, "kappa", kappa, sig)
    _check_scale(pairs, a, kappa, k, sig)


def check_constants(p: dict, out: str) -> None:
    k = ref.Constants(p["overrides"])
    if p["format"] == "csv":
        rows = list(csv.reader(io.StringIO(out)))
    else:
        rows = [_TABLE_SPLIT.split(line.strip()) for line in out.splitlines()]
    _expect(rows[0][:2] == ["name", "value"] and rows[0][3] == "rel_sigma", "header")
    names = [row[0] for row in rows[1:]]
    _expect(names == list(ref.DEFAULTS), f"constant names {names}")
    overridden = {key[2:] if key.startswith("e_") else key for key in p["overrides"]}
    for row in rows[1:]:
        name = row[0]
        _expect(close(float(row[1]), k[name], ref.TOL_CLOSED), f"{name} value {row[1]}")
        _expect(close(float(row[3]), k.e(name), ref.TOL_CLOSED), f"{name} rel_sigma {row[3]}")
        _expect((row[4] == "override") == (name in overridden), f"{name} source {row[4]!r}")


CHECKERS = {"sweep": check_sweep, "spectrum": check_spectrum, "transition": check_transition,
            "dissipation": check_dissipation, "bound": check_bound,
            "constants": check_constants}


def check_cli(op: dict, code, out: str, err: str, exc: Optional[str]) -> Verdict:
    """Verdict for one ``cli.main`` call. Output that the checker cannot
    even evaluate (unparsable, or out of the reference's float range) is
    a value failure."""
    if exc is not None:
        return CONTRACT, f"{exc} escaped main"
    if code not in (0, 2, 3):
        return CONTRACT, f"exit code {code!r}"
    if "Traceback" in err:
        return CONTRACT, "traceback on stderr"
    try:
        return _check_output(op, code, out, err)
    except Mismatch as mismatch:
        return VALUE, str(mismatch)
    except Exception as bad:  # a checker that cannot decide is a verdict, not a crash
        return VALUE, f"output could not be checked: {type(bad).__name__}: {bad}"


def _check_output(op: dict, code, out: str, err: str) -> Verdict:
    p = op["params"]
    expect = op["expect"]
    if code != 0:
        if code == 2 and "error:" in err and expect != "ok":
            return None
        if code == 3 and "numeric failure:" in err and expect == "reject_or_numeric":
            return None
        if p["cmd"] == "sweep" and sweep_row_count(out) < len(_sweep_cells(p)):
            return CONTRACT, f"sweep printed {sweep_row_count(out)} rows, " \
                             f"expected {len(_sweep_cells(p))} (exit {code})"
        return VALUE, f"exit {code} ({err.strip()[:80]!r}), expected {expect}"
    if expect == "reject":
        return VALUE, "out-of-domain input accepted with exit 0"
    if p["cmd"] == "sweep" and sweep_row_count(out) < len(_sweep_cells(p)):
        return CONTRACT, f"sweep printed {sweep_row_count(out)} rows"
    CHECKERS[p["cmd"]](p, out)
    return None


def check_case(op: dict, result: Optional[dict], exc: Optional[str]) -> Verdict:
    """Verdict for one library oracle case (``uncertainty`` workload)."""
    if exc is not None:
        return CONTRACT, f"{exc} raised"
    try:
        return _check_result(op["params"], result)
    except Exception as bad:  # a checker that cannot decide is a verdict, not a crash
        return VALUE, f"result could not be checked: {type(bad).__name__}: {bad}"


def _check_result(p: dict, result: dict) -> Verdict:
    k = ref.Constants()
    a, kappa, e_kappa, n = p["a"], p["kappa"], p["e_kappa"], p["n"]
    lam = ref.lambda0(a, kappa, k)
    k0 = 2.0 * math.pi / lam
    mean, rel = ref.mc_moments(a, kappa, k, e_kappa, p["sampling"])
    checks = [
        ("lambda0", close(result["lambda0"], lam, ref.TOL_CLOSED)),
        ("k0", close(result["k0"], k0, ref.TOL_CLOSED)),
        ("rel_sigma", close(result["rel_sigma"], ref.rel_sigma(a, k, e_kappa), ref.TOL_CLOSED)),
        ("log_form", close(result["log_form"], lam, ref.TOL_CLOSED)),
        ("k_boyer", close(result["k_boyer"], k0, ref.TOL_BISECTION)),
        ("k_truncated", close(result["k_truncated"], k0, ref.TOL_BISECTION)),
        ("mc_mean", close(result["mc_mean"], mean, ref.mc_mean_tolerance(rel, n))),
        ("mc_rel_sigma", close(result["mc_rel_sigma"], rel, ref.mc_tolerance(n))),
        ("mc_n", result["mc_n"] == n),
        ("mc_rejected", result["mc_rejected"] == 0 or p["sampling"] == "normal"),
    ]
    for name, value in ref.sigma_breakdown(a, k, e_kappa).items():
        checks.append((f"sigma_{name}", close(result["breakdown"][name], value,
                                              ref.TOL_CLOSED)))
    bad = [name for name, ok in checks if not ok]
    if bad:
        return VALUE, f"case {p}: {', '.join(bad)} disagree with the reference"
    return None
