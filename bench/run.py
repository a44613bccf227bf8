"""zpfcross benchmark entry point.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it). The package is
used from ``src/`` as it stands; nothing is installed or built. The
workload runs in its own fresh interpreter (``worker.py``) so that
``peak_rss_mb`` belongs to that workload alone. It prints every metric
by name with its unit and sample count, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Details, including the environment block,
go to ``.bench_out/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from worker import THREAD_VARS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0


def child_env(root: Path) -> dict:
    """One thread per library, ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # its own session, so that a timeout also ends the setup probes it started
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as worker:
        try:
            out, err = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited {worker.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zpfcross" / "__init__.py").is_file():
        print(f"error: no zpfcross sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    try:
        record = run_worker(args, child_env(root), RUN_LIMIT_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    metrics = record["metrics"]

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"zpfcross benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs sha256={record['inputs_sha256']} ops/pass={record['ops_per_pass']} "
          f"items/pass={record['items_per_pass']} untraced passes={record['passes']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, metric in sorted(metrics.items()):
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<8} "
              f"({metric['samples']})")
    print(f"  {'failed_frac':<44} {record['failed_frac']:>14.6g} {'1':<8} "
          f"(failed {record['failed']} of {record['attempted']} attempted)")
    for reason, count in sorted(record["failure_reasons"].items()):
        print(f"  failure x{count}: {reason}")
    print(f"detail {detail.relative_to(root)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
