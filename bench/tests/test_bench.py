"""Tests of the benchmark's own machinery: generator, checker, tracer.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import json
import math
import os
import sys
import time

import pytest

import checks
import reference as ref
import tracer as tracing
import worker
import workloads
from worker import Runner, prepare_files


@pytest.fixture(scope="module")
def runner():
    return Runner()


# generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first, second = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert workloads.inputs_digest(first) == workloads.inputs_digest(second)
    assert workloads.inputs_digest(workloads.generate(workload, 8)) != \
        workloads.inputs_digest(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_values_not_the_mix(workload):
    def mix(ops):
        return sorted((op["kind"], op.get("argv", ["case"])[0], op["expect"], op["items"]
                       if op["kind"] == "case" else 0, op["known_defect"]) for op in ops)

    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert mix(a) == mix(b)
    assert sum(op["items"] for op in a) == sum(op["items"] for op in b)


def test_point_queries_shares():
    ops = workloads.generate("point-queries", 3)
    assert len(ops) == 100
    assert sum(op["known_defect"] for op in ops) == 4
    assert sum(op["expect"] == "reject" and not op["known_defect"] for op in ops) == 14


# checker

def _run(runner, op):
    seconds, code, out, err, exc = runner.run(op)
    return code, out, err, exc


def _perturb_csv_value(out, row, column):
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _valid_sweep():
    return workloads.sweep_op([1.7, 2.0], [1.0, 1e-5, 1e-10], "csv", workloads.EXTRAS, "paper")


def test_checker_accepts_correct_sweep(runner):
    op = _valid_sweep()
    assert checks.check_cli(op, *_run(runner, op)) is None


@pytest.mark.parametrize("column", [2, 3, 4, 5, 6, 7])
def test_checker_rejects_sweep_value_perturbed_by_1e6(runner, column):
    op = _valid_sweep()
    code, out, err, exc = _run(runner, op)
    verdict = checks.check_cli(op, code, _perturb_csv_value(out, 3, column), err, exc)
    assert verdict is not None and verdict[0] == checks.VALUE


def test_checker_rejects_sweep_one_row_short(runner):
    op = _valid_sweep()
    code, out, err, exc = _run(runner, op)
    short = "\n".join(out.splitlines()[:-1]) + "\n"
    verdict = checks.check_cli(op, code, short, err, exc)
    assert verdict is not None and verdict[0] == checks.CONTRACT


def test_checker_rejects_spectrum_value_perturbed_by_1e6(runner):
    op = workloads.spectrum_op("ms", 1e-20, 1e20, 30, gamma=2.5)
    code, out, err, exc = _run(runner, op)
    assert checks.check_cli(op, code, out, err, exc) is None
    verdict = checks.check_cli(op, code, _perturb_csv_value(out, 17, 1), err, exc)
    assert verdict == (checks.VALUE, verdict[1])


def _case_op(n, sampling="lognormal"):
    return {"kind": "case", "params": {"a": 1.8, "kappa": 1e-5, "n": n, "sampling": sampling,
                                       "e_kappa": 0.0, "seed": 3},
            "items": 1, "expect": "ok", "known_defect": False, "files": {}}


@pytest.mark.parametrize("field", ["lambda0", "k0", "rel_sigma", "log_form", "k_boyer"])
def test_checker_rejects_case_value_perturbed_by_1e6(runner, field):
    op = _case_op(10 ** 4)
    code, out, err, exc = _run(runner, op)
    result = json.loads(out)
    assert checks.check_case(op, result, exc) is None
    result[field] *= 1.0 + 1e-6
    assert checks.check_case(op, result, exc)[0] == checks.VALUE


@pytest.mark.parametrize("sampling", ["lognormal", "normal"])
def test_checker_rejects_monte_carlo_mean_biased_by_1_percent(runner, sampling):
    op = _case_op(10 ** 4, sampling)
    code, out, err, exc = _run(runner, op)
    result = json.loads(out)
    assert checks.check_case(op, result, exc) is None
    result["mc_mean"] *= 1.01
    verdict = checks.check_case(op, result, exc)
    assert verdict[0] == checks.VALUE and "mc_mean" in verdict[1]


def test_cli_monte_carlo_mean_held_to_standard_errors(runner):
    op = next(o for o in workloads.generate("point-queries", 4) if o["params"].get("mc"))
    code, out, err, exc = _run(runner, op)
    assert checks.check_cli(op, code, out, err, exc) is None
    mean, rel = ref.mc_moments(op["params"]["a"], op["params"]["kappa"], ref.Constants(),
                               op["params"]["e_kappa"], "lognormal")
    sig = op["params"]["sigfigs"]
    tolerance = ref.mc_mean_tolerance(rel, 1000) + 0.5 * 10.0 ** (1 - sig)
    assert tolerance < 0.03  # the rel_sigma tolerance at n = 1000 would be 9.5%
    biased = f"{mean * (1.0 + 2.0 * tolerance):.{sig - 1}e}"
    if op["params"]["format"] == "csv":
        names, values = out.splitlines()
        values = values.split(",")
        values[names.split(",").index("mc_mean_m")] = biased
        bad_out = f"{names}\n{','.join(values)}\n"
    else:
        bad_out = "".join(f"mc_mean_m {biased}\n" if line.startswith("mc_mean_m") else line + "\n"
                          for line in out.splitlines())
    assert bad_out != out
    verdict = checks.check_cli(op, code, bad_out, err, exc)
    assert verdict is not None and "mc_mean_m" in verdict[1]


def test_checker_table_to_printed_figures():
    assert checks.close_sig("5.17e3", 5172.4, 3)
    assert checks.close_sig("5.18e3", 5175.0, 3)
    assert not checks.close_sig("5.18e3", 5174.0, 3)
    assert checks.close_sig("0", 0.0, 3)


def test_out_of_domain_exit_2_is_success_and_known_defects_fail(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.generate("point-queries", 5)
    prepare_files(ops)
    for op in ops:
        verdict = checks.check_cli(op, *_run(runner, op))
        if op["known_defect"]:
            assert verdict is not None and verdict[0] == checks.CONTRACT, op["argv"]
        else:
            assert verdict is None, (op["argv"], verdict)


def test_checker_never_crashes_on_unexpected_outcomes():
    """Every operation, given exit codes and outputs it should not produce,
    gets a verdict instead of raising."""
    ops = workloads.generate("point-queries", 6)
    ops += workloads.generate("sweep", 6)[:1] + workloads.generate("spectrum", 6)[:1]
    outcomes = [(0, "", ""), (0, "garbage\n", ""), (0, "a,b\n1,inf\n", ""),
                (2, "", "no message"), (3, "", "numeric failure: x"), (3, "", "")]
    for op in ops:
        for code, out, err in outcomes:
            verdict = checks.check_cli(op, code, out, err, None)
            assert verdict is None or verdict[0] in (checks.CONTRACT, checks.VALUE)
    assert checks.check_case(_case_op(10 ** 4), {"lambda0": 1.0}, None)[0] == checks.VALUE


def test_overflow_input_printing_inf_with_exit_0_is_a_value_failure():
    ops = workloads.generate("point-queries", 6)
    op = next(o for o in ops if o["known_defect"] and o["params"].get("kmax") == 1e300)
    grid = ref.spectrum_grid(1e-300, 1e300, op["params"]["points"])
    k = ref.Constants()
    out = "k,E\n" + "".join(
        f"{kw!r},{k['hbar'] * k['c'] * kw ** 3 if kw < 1e100 else math.inf!r}\n"
        for kw in grid)
    assert checks.check_cli(op, 0, out, "", None)[0] == checks.VALUE


# tracer

def test_self_time_on_hand_built_span_tree():
    names = ["cli.main", "transition.numeric_crossover", "spectra.Boyer.evaluate",
             "quantity.power"]
    spans = [
        (0, -1, 0, 0.0, 10.0),  # main
        (1, 0, 0, 1.0, 6.0),    # root finder: 5 s
        (2, 1, 0, 2.0, 3.0),    # evaluate under the root: 1 s
        (3, 2, 0, 2.25, 2.5),   # power inside evaluate: 0.25 s
        (2, 0, 0, 7.0, 9.0),    # evaluate outside any root: 2 s
    ]
    stats = tracing.analyse(spans, names)
    assert stats["self"]["cli.main"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert stats["self"]["transition.numeric_crossover"] == pytest.approx(4.0)
    assert stats["self"]["spectra.Boyer.evaluate"] == pytest.approx(0.75 + 2.0)
    assert stats["total"]["spectra.Boyer.evaluate"] == pytest.approx(3.0)
    assert stats["calls"]["spectra.Boyer.evaluate"] == 2
    assert stats["layer_self"]["quantity"] == pytest.approx(0.25)
    assert stats["evals_in_roots"] == 1
    assert sum(stats["layer_self"].values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    names = ["report.run_sweep", "transition.transition_scale"]
    spans = [(0, -1, 0, 0.0, 10.0), (1, 0, 0, 1.0, 4.0), (1, 0, 0, 3.0, 6.0)]
    assert tracing.analyse(spans, names)["self"]["report.run_sweep"] == pytest.approx(5.0)


def test_setup_probes_spread_through_the_run(monkeypatch):
    start = time.perf_counter()
    probe_times = []

    def probe():
        probe_times.append(time.perf_counter() - start)
        return 0.2

    monkeypatch.setattr(worker, "setup_probe", probe)
    passes, setup = worker.timed_passes(lambda: time.sleep(0.01), 0.4, 4)
    assert setup == [0.2] * 4 and len(passes) >= 20
    assert probe_times[0] < 0.1 and 0.25 < probe_times[-1] < 0.4


def test_passes_rotate_over_the_allowed_cpus():
    allowed = os.sched_getaffinity(0)
    seen = []
    passes, _ = worker.timed_passes(lambda: seen.append(os.sched_getaffinity(0)), 0.05, 0)
    assert os.sched_getaffinity(0) == allowed
    assert all(len(cpus) == 1 for cpus in seen) or len(allowed) == 1
    assert set().union(*seen[:len(allowed)]) == allowed


def test_setup_probe_times_a_fresh_interpreter(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(tracing.BENCHMARK_FILE.parent / "src"))
    assert 0.0 < worker.setup_probe() < 60.0


def test_missing_names_report_zero():
    metrics = tracing.layer_metrics(tracing.analyse([], []), tracing.Counter(), 10, 0)
    assert list(metrics) + ["trace.overhead_frac"] == list(tracing.per_layer_units())
    assert all(value == 0.0 for value in metrics.values())


def _bindings():
    """Every attribute of every zpfcross module and exported class."""
    import zpfcross

    owners = [module for name, module in sys.modules.items()
              if name == "zpfcross" or name.startswith("zpfcross.")]
    owners += [value for value in vars(zpfcross).values() if isinstance(value, type)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_restores_every_attribute(runner):
    import zpfcross
    import zpfcross.cli
    import zpfcross.report

    before = _bindings()
    main, scale = zpfcross.cli.main, zpfcross.report.transition_scale
    tracer = tracing.Tracer()
    targets = tracer.targets()
    tracer.install()
    try:
        assert zpfcross.cli.main is not main
        assert zpfcross.report.transition_scale is not scale
        assert zpfcross.transition_scale is zpfcross.report.transition_scale
        names = {name for _, _, name, _ in targets}
        assert {"transition.transition_scale", "quantity.Dimension.__mul__",
                "constants.CosmologyContext.default", "spectra.MoisseevShivamoggi.evaluate",
                "cli.main"} <= names
    finally:
        tracer.uninstall()
    assert tracer.restored(targets)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_outputs_identical_to_untraced(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = (workloads.generate("point-queries", 9)
           + workloads.generate("spectrum", 9)[:2]
           + [_valid_sweep()]
           + [op for op in workloads.generate("uncertainty", 9) if op["params"]["n"] == 10000])
    prepare_files(ops)
    untraced = [_run(runner, op) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_run(runner, op) for op in ops]
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert spans and all(span is not None for span in spans)
    assert traced == untraced


def test_reference_lognormal_spread_matches_first_order_to_second_order():
    import reference as ref

    k = ref.Constants()
    mean, rel = ref.mc_moments(1.8, 1e-5, k, 0.0, "lognormal")
    first_order = ref.rel_sigma(1.8, k)
    assert rel == pytest.approx(first_order, rel=first_order ** 2)
    assert mean > ref.lambda0(1.8, 1e-5, k)
    assert math.isfinite(ref.mc_moments(1.8, 1e-5, k, 0.1, "normal")[1])
