"""Seeded input generator for the four workloads.

``generate(workload, seed)`` returns the fixed list of operations that
make up one pass. Every pass of a run repeats the same list. The share
of each kind of operation is fixed per workload; the seed only draws
the values. So runs with different seeds do the same amount of work of
each kind, and one seed always gives byte-identical inputs
(``inputs_digest``).

An operation is a dict: ``kind`` "cli" (``argv`` for ``zpfcross.cli.main``)
or "case" (library oracle case), ``params`` for the checker, ``expect``
("ok", "reject" for exit 2 with an ``error:`` message, or "reject_or_numeric",
which also allows exit 3), ``items`` it completes and ``known_defect`` for
the reproduced item-4 inputs of ROADMAP.md, which fail at the commit that
added this benchmark. ``files`` maps config paths to their text.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List

import reference as ref

WORKLOADS = ("sweep", "spectrum", "uncertainty", "point-queries")
CONFIG_DIR = ".bench_out/cfg"

SLOPE_RANGE = (1.2, 2.9)
LOG10_KAPPA_RANGE = (-20.0, 0.0)
LOG10_K_RANGE = (math.log10(ref.DEFAULTS["H"][0] / ref.C_LIGHT) + 0.01,
                 math.log10(2.0 * math.pi / ref.DEFAULTS["r_p"][0]) - 0.01)
MIN_K_DECADES = 5.0  # every spectrum spans at least this many decades of k
EXTRAS = ["epsilon", "N", "Ns"]


def _num(x: float) -> str:
    return repr(float(x))


class _Draw:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"zpfcross-bench:{workload}:{seed}")

    def slope(self) -> float:
        return round(self.rng.uniform(*SLOPE_RANGE), 4)

    def kappa(self) -> float:
        return float(f"{10.0 ** self.rng.uniform(*LOG10_KAPPA_RANGE):.4g}")

    def log_uniform(self, lo: float, hi: float) -> float:
        return float(f"{10.0 ** self.rng.uniform(math.log10(lo), math.log10(hi)):.4g}")

    def k_range(self):
        lo, hi = LOG10_K_RANGE
        while True:
            u, v = sorted(self.rng.uniform(lo, hi) for _ in range(2))
            if v - u >= MIN_K_DECADES:
                return float(f"{10.0 ** u:.6g}"), float(f"{10.0 ** v:.6g}")


def _cli(argv: List[str], params: dict, items: int = 1, expect: str = "ok",
         known_defect: bool = False, files: Dict[str, str] = None) -> dict:
    return {"kind": "cli", "argv": argv, "params": params, "items": items,
            "expect": expect, "known_defect": known_defect, "files": files or {}}


# sweep

def sweep_op(slopes, kappas, fmt="csv", outputs=(), n0="paper", sigfigs=3,
             edge=False, known_defect=False) -> dict:
    argv = ["sweep", "--slopes", ",".join(_num(a) for a in slopes),
            "--kappas", ",".join(_num(k) for k in kappas), "--format", fmt,
            "--sigfigs", str(sigfigs), "--n0", n0]
    if outputs:
        argv += ["--outputs", ",".join(outputs)]
    params = {"cmd": "sweep", "slopes": list(slopes), "kappas": list(kappas), "format": fmt,
              "outputs": list(outputs), "n0": n0, "sigfigs": sigfigs, "edge": edge}
    return _cli(argv, params, items=len(slopes) * len(kappas), known_defect=known_defect)


def _sweep_grid(d: _Draw, n_slopes: int, n_kappas: int):
    """Grid with two out-of-domain slopes (a <= 1, a >= 3) and one kappa > 1."""
    slopes = [d.slope() for _ in range(n_slopes - 2)]
    slopes += [round(d.rng.uniform(0.5, 1.0), 4), round(d.rng.uniform(3.0, 3.5), 4)]
    kappas = [d.kappa() for _ in range(n_kappas - 1)] + [round(d.rng.uniform(1.5, 10.0), 3)]
    d.rng.shuffle(slopes)
    d.rng.shuffle(kappas)
    return slopes, kappas


def _gen_sweep(d: _Draw) -> List[dict]:
    """Four 12x10 grids of each kind. Grids of ~20 ms rather than fewer,
    larger ones: the best of a short operation's repetitions is less
    disturbed by other tenants of a shared machine."""
    ops = []
    for fmt, extras, n0 in (("csv", True, "paper"), ("table", True, "computed"),
                            ("csv", False, "computed"), ("table", False, "paper")) * 4:
        slopes, kappas = _sweep_grid(d, 12, 10)
        sigfigs = d.rng.choice([3, 4, 6]) if fmt == "table" else 3
        ops.append(sweep_op(slopes, kappas, fmt, EXTRAS if extras else (), n0, sigfigs))
    return ops


# spectrum

def spectrum_op(model: str, kmin: float, kmax: float, points: int, **model_args) -> dict:
    argv = ["spectrum", "--model", model, "--kmin", _num(kmin), "--kmax", _num(kmax),
            "--points", str(points)]
    flags = {"cutoff": "--cutoff-k", "slope": "--slope", "kappa": "--kappa",
             "gamma": "--gamma", "epsilon": "--epsilon", "const": "--kolmogorov-const"}
    for name, value in model_args.items():
        argv += [flags[name], _num(value)]
    params = {"cmd": "spectrum", "model": model, "kmin": kmin, "kmax": kmax,
              "points": points, **model_args}
    return _cli(argv, params, items=points)


def _spectrum_args(d: _Draw, model: str, kmin: float, kmax: float, variant: int) -> dict:
    if model == "truncated":
        frac = d.rng.uniform(0.45, 0.55)
        return {"cutoff": float(f"{kmin * (kmax / kmin) ** frac:.6g}")}
    if model == "powerlaw":
        return {"slope": d.slope(), "kappa": d.kappa()}
    if model == "ms":
        args = {"gamma": round(d.rng.uniform(0.6, 6.0), 4)}
        if variant == 0:
            args["epsilon"] = d.log_uniform(1e-30, 1e-20)
            args["const"] = round(d.rng.uniform(0.5, 2.0), 3)
        return args
    return {}


def _gen_spectrum(d: _Draw) -> List[dict]:
    ops = []
    for model in ("boyer", "truncated", "powerlaw", "ms"):
        for variant in range(3):
            kmin, kmax = d.k_range()
            ops.append(spectrum_op(model, kmin, kmax, 400,
                                   **_spectrum_args(d, model, kmin, kmax, variant)))
    return ops


# uncertainty

def _gen_uncertainty(d: _Draw) -> List[dict]:
    ops = []
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        for sampling in ("lognormal", "normal"):
            for e_kappa in (0.0, 0.1):
                params = {"a": d.slope(), "kappa": d.kappa(), "n": n, "sampling": sampling,
                          "e_kappa": e_kappa, "seed": d.rng.randrange(2 ** 31)}
                ops.append({"kind": "case", "params": params, "items": 1, "expect": "ok",
                            "known_defect": False, "files": {}})
    d.rng.shuffle(ops)
    return ops


# point queries

def _pairs_flags(d: _Draw, i: int) -> List[str]:
    return ["--format", ("table", "csv")[i % 2], "--sigfigs", str(d.rng.choice([3, 4, 5]))]


def _flag_params(flags: List[str]) -> dict:
    return {"format": flags[1], "sigfigs": int(flags[3])}


def _config(d: _Draw, seed: int, index: int):
    """A valid override file: H in km/s/Mpc and its uncertainty."""
    h_kms = round(d.rng.uniform(65.0, 80.0), 2)
    e_h = round(d.rng.uniform(0.02, 0.2), 3)
    path = f"{CONFIG_DIR}/s{seed}-{index}.cfg"
    text = f"# Hubble constant override\nH = {h_kms} km/s/Mpc\ne_H = {e_h}\n"
    return path, text, {"H": h_kms * ref.KMS_PER_MPC, "e_H": e_h}


def _transition_query(d, seed, i, ekappa=False, mc=False, config=False) -> dict:
    a, kappa = d.slope(), d.kappa()
    flags = _pairs_flags(d, i)
    argv = ["transition", "--slope", _num(a), "--kappa", _num(kappa)] + flags
    params = {"cmd": "transition", "a": a, "kappa": kappa, "e_kappa": 0.0, "mc": 0,
              "overrides": {}, **_flag_params(flags)}
    files = {}
    if ekappa:
        params["e_kappa"] = round(d.rng.uniform(0.01, 0.5), 3)
        argv += ["--ekappa", _num(params["e_kappa"])]
    if mc:
        params["mc"] = 1000
        argv += ["--mc", "1000", "--seed", str(d.rng.randrange(10 ** 6))]
    if config:
        path, text, overrides = _config(d, seed, i)
        argv += ["--config", path]
        params["overrides"] = overrides
        files[path] = text
    return _cli(argv, params, files=files)


def _budget_flags(d: _Draw, i: int):
    window = round(d.rng.uniform(0.5, 30.0), 3)
    radius = round(d.rng.uniform(1.0, 60.0), 3)
    n0 = ("paper", "computed")[(i // 2) % 2]
    argv = ["--window-days", _num(window), "--radius-lightminutes", _num(radius), "--n0", n0]
    return argv, {"window_days": window, "radius_lm": radius, "n0": n0}


def _dissipation_query(d: _Draw, i: int) -> dict:
    a, kappa = d.slope(), d.kappa()
    flags = _pairs_flags(d, i)
    budget_argv, budget = _budget_flags(d, i)
    argv = ["dissipation", "--kappa", _num(kappa), "--slope", _num(a)] + budget_argv + flags
    return _cli(argv, {"cmd": "dissipation", "a": a, "kappa": kappa, **budget,
                       **_flag_params(flags)})


def _bound_query(d: _Draw, i: int) -> dict:
    a = d.slope()
    ns = d.log_uniform(1e-15, 1e-9)
    flags = _pairs_flags(d, i)
    budget_argv, budget = _budget_flags(d, i)
    budget_argv[-1] = budget["n0"] = "paper"  # computed N0 leaves kappa unconstrained
    argv = ["bound", "--ns", _num(ns), "--slope", _num(a)] + budget_argv + flags
    return _cli(argv, {"cmd": "bound", "a": a, "ns": ns, **budget, **_flag_params(flags)})


def _constants_query(d: _Draw, seed: int, i: int, config: bool) -> dict:
    fmt = ("table", "csv")[i % 2]
    argv = ["constants", "--format", fmt]
    params = {"cmd": "constants", "format": fmt, "overrides": {}}
    files = {}
    if config:
        path, text, params["overrides"] = _config(d, seed, i)
        argv += ["--config", path]
        files[path] = text
    return _cli(argv, params, files=files)


def _small_sweep(d: _Draw, i: int, n_slopes: int, n_kappas: int) -> dict:
    """Fixed mix by position: half with extras, both formats, both N0 modes."""
    return sweep_op([d.slope() for _ in range(n_slopes)], [d.kappa() for _ in range(n_kappas)],
                    ("csv", "table")[(i // 2) % 2], EXTRAS if i % 2 else [],
                    ("paper", "computed")[(i // 4) % 2], d.rng.choice([3, 4]))


def _small_spectrum(d: _Draw, model: str) -> dict:
    kmin, kmax = d.k_range()
    return spectrum_op(model, kmin, kmax, 20, **_spectrum_args(d, model, kmin, kmax, 1))


def _out_of_domain(d: _Draw, seed: int) -> List[dict]:
    """Inputs outside the documented domain; each must exit 2 with ``error:``."""
    a, kappa = d.slope(), d.kappa()
    bad_cfg = f"{CONFIG_DIR}/s{seed}-bad.cfg"
    argvs = [
        ["transition", "--slope", _num(round(d.rng.uniform(3.0, 4.0), 3))],
        ["transition", "--slope", _num(round(d.rng.uniform(0.2, 1.0), 3))],
        ["transition", "--slope", _num(a), "--kappa", _num(round(d.rng.uniform(1.5, 5.0), 3))],
        ["transition", "--slope", _num(a), "--mc", str(d.rng.randrange(10, 999))],
        ["transition", "--slope", _num(a), "--ekappa=-0.1"],
        ["dissipation", "--slope", _num(a), "--kappa", _num(round(d.rng.uniform(1.5, 5.0), 3))],
        ["dissipation", "--slope", _num(a), "--kappa", _num(kappa), "--window-days", "0"],
        ["bound", "--slope", _num(a), "--n0", "computed"],
        ["spectrum", "--model", "boyer", "--kmin", "1e5", "--kmax", "1e2"],
        ["spectrum", "--model", "ms", "--points", "1"],
        ["spectrum", "--model", "ms", "--gamma", _num(round(d.rng.uniform(0.0, 0.33), 3))],
        ["spectrum", "--model", "powerlaw", "--slope", _num(round(d.rng.uniform(3.0, 4.0), 3))],
        ["constants", "--config", bad_cfg],
    ]
    ops = [_cli(argv, {"cmd": argv[0]}, expect="reject") for argv in argvs]
    ops[-1]["files"] = {bad_cfg: "H = -70 km/s/Mpc\n"}
    unknown_output = sweep_op([a], [kappa], outputs=["lambda1"])
    unknown_output["expect"] = "reject"
    return ops + [unknown_output]


def _known_defects(d: _Draw, seed: int) -> List[dict]:
    """The four reproduced inputs of ROADMAP item 4."""
    a = d.slope()
    sigfigs = _cli(["transition", "--slope", _num(a), "--sigfigs", "-1"],
                   {"cmd": "transition"}, expect="reject", known_defect=True)
    missing = _cli(["transition", "--slope", _num(a), "--config",
                    f"{CONFIG_DIR}/missing-s{seed}.cfg"],
                   {"cmd": "transition"}, expect="reject", known_defect=True)
    overflow = spectrum_op("boyer", 1e-300, 1e300, 20)
    overflow.update(expect="reject_or_numeric", known_defect=True)
    underflow = sweep_op([1.5, 2.9], [1.0, 1e-300], edge=True, known_defect=True)
    return [sigfigs, missing, overflow, underflow]


def _gen_point_queries(d: _Draw, seed: int) -> List[dict]:
    ops = []
    ops += [_transition_query(d, seed, i, config=i < 2) for i in range(8)]
    ops += [_transition_query(d, seed, i, ekappa=True) for i in range(6)]
    ops += [_transition_query(d, seed, i, mc=True) for i in range(6)]
    ops += [_dissipation_query(d, i) for i in range(12)]
    ops += [_bound_query(d, i) for i in range(12)]
    ops += [_constants_query(d, seed, 10 + i, config=i >= 2) for i in range(6)]
    ops += [_small_sweep(d, i, 1, 1) for i in range(10)]
    ops += [_small_sweep(d, i, 2, 3) for i in range(10)]
    ops += [_small_spectrum(d, model) for model in ("boyer", "truncated", "powerlaw", "ms")
            for _ in range(3)]
    ops += _out_of_domain(d, seed)
    ops += _known_defects(d, seed)
    d.rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> List[dict]:
    d = _Draw(workload, seed)
    if workload == "sweep":
        return _gen_sweep(d)
    if workload == "spectrum":
        return _gen_spectrum(d)
    if workload == "uncertainty":
        return _gen_uncertainty(d)
    if workload == "point-queries":
        return _gen_point_queries(d, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def inputs_digest(ops: List[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
