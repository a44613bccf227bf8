"""One workload in one fresh interpreter: warm up, measure, check, trace.

Started by ``run.py`` with ``src`` on PYTHONPATH and the thread variables
set to 1. Prints one JSON record as its last line of output.

Without tracing, ``setup_s`` probes (fresh interpreters that import the
CLI, build its parser and the default context) are spread evenly
between the timed passes, so they sample the same stretch of machine
load as the workload.

A pass runs the workload's fixed operation list once, closed loop, one
client. The first pass is the untimed warm-up; its outputs are checked
against the reference. Each later pass is timed per operation, and an
output that differs from the warm-up's is checked on its own. With
``--trace 1`` every untraced pass is followed by a traced one, and every
traced output must be byte-identical to the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
import workloads

OUT_DIR = Path(".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 16
SETUP_CODE = ("import sys\n"
              "import zpfcross.cli\n"
              "from zpfcross.constants import CosmologyContext\n"
              "zpfcross.cli.build_parser()\n"
              "CosmologyContext.default()\n"
              "sys.stdout.write('ready\\n')\n"
              "sys.stdout.flush()\n")


class Runner:
    """Runs operations through the public API, looked up at call time so
    that the tracer's wrappers are the ones called."""

    def __init__(self):
        import zpfcross
        import zpfcross.cli

        self.zpf = zpfcross
        self.cli = zpfcross.cli
        self.ctx = zpfcross.CosmologyContext.default()

    def run(self, op):
        """(seconds, code, stdout, stderr, escaped exception name)."""
        if op["kind"] == "case":
            return self._case(op["params"])
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(op["argv"])
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
            except Exception as escaped:  # the contract under test: none may escape
                exc = type(escaped).__name__
            seconds = time.perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue(), exc

    def _case(self, p):
        zpf, ctx = self.zpf, self.ctx
        start = time.perf_counter()
        try:
            scale = zpf.transition_scale(p["a"], p["kappa"], ctx, e_kappa=p["e_kappa"])
            log_form = zpf.log_form_scale(p["a"], p["kappa"], ctx)
            turb = zpf.PowerLawTurbulence.from_kappa(ctx, p["kappa"], p["a"])
            k_boyer = zpf.numeric_crossover(zpf.Boyer.from_context(ctx), turb, ctx)
            k_trunc = zpf.numeric_crossover(zpf.TruncatedBoyer.from_context(ctx), turb, ctx)
            mc = zpf.monte_carlo_scale(p["a"], p["kappa"], p["n"], p["seed"], ctx,
                                       e_kappa=p["e_kappa"], sampling=p["sampling"])
        except Exception as escaped:
            return time.perf_counter() - start, None, "", "", type(escaped).__name__
        seconds = time.perf_counter() - start
        result = {"lambda0": scale.lambda0.value, "k0": scale.k0.value,
                  "rel_sigma": scale.rel_sigma, "breakdown": dict(scale.sigma_breakdown),
                  "log_form": log_form.value, "k_boyer": k_boyer.value,
                  "k_truncated": k_trunc.value, "mc_mean": mc.mean.value,
                  "mc_rel_sigma": mc.rel_sigma, "mc_n": mc.n_samples,
                  "mc_rejected": mc.rejected}
        return seconds, 0, json.dumps(result, sort_keys=True), "", None


def verdict(op, code, out, err, exc):
    if op["kind"] == "case":
        return checks.check_case(op, json.loads(out) if exc is None else None, exc)
    return checks.check_cli(op, code, out, err, exc)


def digest(code, out, err, exc) -> str:
    return hashlib.blake2b(f"{code}\0{exc}\0{out}\0{err}".encode(), digest_size=16).hexdigest()


class Accounting:
    """Attempted and failed operations; failures by category and reason."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.unexpected = []  # failures that make the run incorrect
        self.reasons = {}

    def add(self, index, result_verdict) -> None:
        self.attempted += 1
        if result_verdict is None:
            return
        self.failed += 1
        category, reason = result_verdict
        op = self.ops[index]
        key = f"{op.get('argv', ['case'])[0]}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        if category == checks.VALUE or not op["known_defect"]:
            if len(self.unexpected) < 20:
                self.unexpected.append({"op": index, "argv": op.get("argv"),
                                        "params": op["params"], "reason": reason})


def setup_probe() -> float:
    """Spawn-to-ready seconds of one fresh interpreter running ``SETUP_CODE``.
    The bytecode caches are already written by this process's imports."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = probe.communicate(timeout=60)
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.decode(errors='replace')[-500:]}")
    return elapsed


def rotate_cpu(index: int, cpus) -> None:
    """Move this process to the ``index``-th of ``cpus`` (round robin).

    On a shared host a vCPU can run 1.6-1.8x slower, for seconds to
    minutes, while another tenant loads its physical core, and the
    scheduler keeps a lone busy process where it is. Spreading the passes
    over every vCPU the process may use lets each operation's best time
    come from the least-loaded one. Setup probes inherit the pass's vCPU."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def timed_passes(run_pass, budget_s: float, probes: int):
    """Whole passes until ``budget_s`` has elapsed (at least one), with
    ``probes`` setup probes spread evenly between them; probe k runs after
    the first pass that ends past k/probes of the budget. Pass i runs on
    the i-th allowed vCPU, round robin."""
    passes, setup = [], []
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < budget_s:
            rotate_cpu(len(passes), cpus)
            passes.append(run_pass())
            if len(setup) < probes and \
                    time.perf_counter() - start >= len(setup) * budget_s / probes:
                setup.append(setup_probe())
        setup += [setup_probe() for _ in range(probes - len(setup))]
    finally:
        os.sched_setaffinity(0, allowed)
    return passes, setup


def best_of(passes):
    """Each operation's shortest latency over the passes.

    On a shared machine other tenants can slow every operation by
    1.3-1.8x for seconds at a time, so per-call times and pass medians
    mostly measure that load. The best of many spaced repetitions of the
    same operation measures the program.
    """
    return [min(latencies) for latencies in zip(*(p[0] for p in passes))]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    import numpy

    def getconf(name):
        try:
            done = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return int(done.stdout) if done.stdout.strip().isdigit() else None

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env={**os.environ,
                                              "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        source.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "machine_level_controls": "none: frequency scaling and cgroups are not "
                                  "controlled; the worker moves only itself between "
                                  "its allowed vCPUs, one pass each",
    }


def prepare_files(ops) -> None:
    for op in ops:
        for name, text in op["files"].items():
            path = Path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        if op["known_defect"] and "--config" in op.get("argv", []):
            missing = Path(op["argv"][op["argv"].index("--config") + 1])
            missing.unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.generate(args.workload, args.seed)
    items_per_pass = sum(op["items"] for op in ops)
    prepare_files(ops)
    runner = Runner()

    # warm-up pass: untimed, and the reference verdict for each operation
    warm = [runner.run(op) for op in ops]
    warm_digest = [digest(*r[1:]) for r in warm]
    warm_verdict = [verdict(op, *r[1:]) for op, r in zip(ops, warm)]
    accounting = Accounting(ops)

    def timed_pass(tracer=None):
        """Per-op latencies, stdout bytes and whether all outputs equal the warm-up's."""
        gc.collect()
        latencies, out_bytes, identical = [], 0, True
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            seconds, *result = runner.run(op)
            latencies.append(seconds)
            out_bytes += len(result[1].encode()) if op["kind"] == "cli" else 0
            if digest(*result) == warm_digest[index]:
                accounting.add(index, warm_verdict[index])
            else:
                identical = False
                accounting.add(index, verdict(op, *result))
        return latencies, out_bytes, identical

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs_sha256": workloads.inputs_digest(ops), "ops_per_pass": len(ops),
              "items_per_pass": items_per_pass, "environment": environment()}
    tracer = tracing.Tracer()
    targets = tracer.targets()
    per_pass, traced = [], []

    def traced_pass():
        tracer.install()
        try:
            result = timed_pass(tracer)
        finally:
            tracer.uninstall()
        if not tracer.restored(targets):
            raise RuntimeError("tracer left a wrapped attribute behind")
        spans, counts = tracer.take()
        if not per_pass:
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{args.workload}-s{args.seed}.csv.gz"
            tracer.write_spans(str(span_file), spans)
            record.update(span_file=str(span_file), spans_per_pass=len(spans))
        stats = tracing.analyse(spans, tracer.names)
        per_pass.append(tracing.layer_metrics(stats, counts, items_per_pass, result[1]))
        traced.append(result)

    def next_pass():
        """An untraced pass; with tracing, each is followed by a traced one,
        so both kinds see the same machine load."""
        result = timed_pass()
        if args.trace:
            traced_pass()
        return result

    passes, setup = timed_passes(next_pass, args.seconds, 0 if args.trace else SETUP_PROBES)
    best = best_of(passes)
    record.update(passes=len(passes), op_best_s=best, setup_samples_s=setup)
    identical = all(p[2] for p in traced)

    if args.trace:
        # the least-disturbed traced pass stands for the layer breakdown
        fastest = min(range(len(traced)), key=lambda i: sum(traced[i][0]))
        metrics = dict(per_pass[fastest])
        metrics["trace.overhead_frac"] = sum(best_of(traced)) / sum(best) - 1.0
        units = tracing.per_layer_units()
        record.update(traced_passes=len(traced), traced_outputs_identical=identical,
                      metrics={name: {"value": value, "unit": units[name],
                                      "samples": f"fastest of {len(traced)} traced passes"}
                               for name, value in metrics.items()})
    else:
        reps = f"{len(ops)} distinct ops, best of {len(passes)} passes each"
        record["metrics"] = {
            "items_per_s": {"value": items_per_pass / sum(best), "unit": "items/s",
                            "samples": reps},
            "query_p50_ms": {"value": 1e3 * percentile(best, 0.50), "unit": "ms",
                             "samples": reps},
            "query_p99_ms": {"value": 1e3 * percentile(best, 0.99), "unit": "ms",
                             "samples": reps},
            "success_frac": {"value": 1.0 - accounting.failed / accounting.attempted,
                             "unit": "1", "samples": f"{accounting.attempted} operations"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB", "samples": "1 process"},
            "setup_s": {"value": statistics.median(setup), "unit": "s",
                        "samples": f"median of {len(setup)} fresh interpreters "
                                   "spread through the run"},
        }
    record.update(correct=identical and not accounting.unexpected,
                  attempted=accounting.attempted, failed=accounting.failed,
                  failed_frac=accounting.failed / accounting.attempted,
                  failure_reasons=accounting.reasons, unexpected_failures=accounting.unexpected)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
