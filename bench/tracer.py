"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of zpfcross (the names the
package exports, plus the public functions of ``zpfcross.cli``) at every
module attribute that binds it, and a fixed list of methods on their
classes. Each call records a span (name, parent, op id, start, end) in
memory; ``uninstall`` puts every original attribute back. ``analyse``
turns the spans of one pass into per-name call counts, inclusive and
self times, and ``layer_metrics`` into the per-layer metrics of
BENCHMARK.json. A name that no longer exists is skipped, so its metrics
read 0 calls.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

Span = Tuple[int, int, int, float, float]  # name id, parent index, op id, start, end

PACKAGE = "zpfcross"
BENCHMARK_FILE = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# (class exported by the package, method names); spectrum models are found
# as the concrete subclasses of SpectrumModel
METHODS = (("Dimension", ("__mul__", "__truediv__", "__pow__")),
           ("CosmologyContext", ("default", "product")))
DIMENSION_OPS = ("quantity.Dimension.__mul__", "quantity.Dimension.__truediv__",
                 "quantity.Dimension.__pow__")
ROOT = "transition.numeric_crossover"


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def is_model_evaluate(name: str) -> bool:
    parts = name.split(".")
    return len(parts) == 3 and parts[0] == "spectra" and parts[2] == "evaluate"


def _count_rows(counts: Counter, rows) -> None:
    rows = list(rows)
    counts["report.rows"] += len(rows)
    counts["report.error_rows"] += sum(1 for row in rows if getattr(row, "error", None))


def _count_samples(counts: Counter, result) -> None:
    counts["transition.mc_samples"] += getattr(result, "n_samples", 0)


# counters read from the return value at the boundary that produced it
RESULT_COUNTERS = {"report.run_sweep": _count_rows,
                   "transition.monte_carlo_scale": _count_samples}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # installation

    def _modules(self):
        return [module for name, module in sorted(sys.modules.items())
                if (name == PACKAGE or name.startswith(PACKAGE + "."))
                and not name.endswith(".__main__") and module is not None]

    def targets(self):
        """(owner, attribute, span name, raw attribute) for everything to wrap."""
        package = sys.modules[PACKAGE]
        modules = self._modules()
        functions = {}
        for module in (package, sys.modules.get(PACKAGE + ".cli")):
            if module is None:
                continue
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__.startswith(PACKAGE)):
                    functions[id(value)] = value
        found = []
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in functions and functions[id(value)] is value:
                    found.append((module, attr, f"{_layer(value.__module__)}.{value.__name__}",
                                  value))
        classes = [(getattr(package, cls_name, None), methods) for cls_name, methods in METHODS]
        base = getattr(package, "SpectrumModel", None)
        if base is not None:
            classes += [(cls, ("evaluate",)) for cls in vars(package).values()
                        if inspect.isclass(cls) and issubclass(cls, base)
                        and not inspect.isabstract(cls)]
        for cls, methods in classes:
            if cls is None:
                continue
            for method in methods:
                raw = vars(cls).get(method)
                if raw is not None:
                    found.append((cls, method,
                                  f"{_layer(cls.__module__)}.{cls.__name__}.{method}", raw))
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[int, object] = {}
        for owner, attr, span_name, raw in self.targets():
            if id(raw) not in wrappers:
                if isinstance(raw, (classmethod, staticmethod)):
                    wrappers[id(raw)] = type(raw)(self._wrap(raw.__func__, span_name))
                else:
                    wrappers[id(raw)] = self._wrap(raw, span_name)
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, wrappers[id(raw)])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    @staticmethod
    def restored(targets) -> bool:
        """True when every attribute listed by ``targets()`` is the original again."""
        return all(vars(owner).get(attr) is raw for owner, attr, _, raw in targets)

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, parent, tracer.op, start, end)
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def take(self):
        """Spans and counters recorded since the last call; clears both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def write_spans(self, path: str, spans: List[Span]) -> None:
        origin = spans[0][3] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,parent,op,name,start_s,end_s\n")
            for index, (name_id, parent, op, start, end) in enumerate(spans):
                out.write(f"{index},{parent},{op},{self.names[name_id]},"
                          f"{start - origin:.9f},{end - origin:.9f}\n")


def analyse(spans: List[Span], names: List[str]):
    """Per-name calls, inclusive and self seconds, and per-layer self seconds.

    Self time is a span's duration minus the union of its children's
    intervals. Also counts model ``evaluate`` spans under a bisection root.
    """
    children = defaultdict(list)
    for name_id, parent, op, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    evals_in_roots = 0
    for index, (name_id, parent, op, start, end) in enumerate(spans):
        name = names[name_id]
        covered = 0.0
        last = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, last)
            if c_end > c_start:
                covered += c_end - c_start
                last = c_end
        own = (end - start) - covered
        calls[name] += 1
        total[name] += end - start
        self_time[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if is_model_evaluate(name):
            ancestor = parent
            while ancestor >= 0:
                if names[spans[ancestor][0]] == ROOT:
                    evals_in_roots += 1
                    break
                ancestor = spans[ancestor][1]
    return {"calls": calls, "total": total, "self": self_time, "layer_self": layer_self,
            "evals_in_roots": evals_in_roots}


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, from BENCHMARK.json."""
    listed = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))["per_layer"]
    return {metric["name"]: metric["unit"] for metric in listed}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, counts: Counter, items: int, output_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_frac``)."""
    calls, total, own = stats["calls"], stats["total"], stats["self"]
    evaluate = [name for name in calls if is_model_evaluate(name)]
    eval_calls = sum(calls[name] for name in evaluate)
    dim_ops = sum(calls[name] for name in DIMENSION_OPS)
    m = {
        "quantity.dimension_ops": dim_ops,
        "quantity.dimension_ops_per_item": _ratio(dim_ops, items),
        "quantity.power.calls": calls["quantity.power"],
        "quantity.propagate.calls": calls["quantity.propagate"],
        "quantity.self_s": stats["layer_self"]["quantity"],
        "constants.context_default.calls": calls["constants.CosmologyContext.default"],
        "constants.context_default.self_s": own["constants.CosmologyContext.default"],
        "constants.product.calls": calls["constants.CosmologyContext.product"],
        "constants.product.self_s": own["constants.CosmologyContext.product"],
        "spectra.evaluate.calls": eval_calls,
        "spectra.evaluate.self_s": sum(own[name] for name in evaluate),
        "spectra.evaluate.us_per_call": 1e6 * _ratio(sum(total[n] for n in evaluate), eval_calls),
        "spectra.amplitude_from_kappa.calls": calls["spectra.amplitude_from_kappa"],
        "transition.transition_scale.calls": calls["transition.transition_scale"],
        "transition.transition_scale.self_s": own["transition.transition_scale"],
        "transition.transition_scale.us_per_call":
            1e6 * _ratio(total["transition.transition_scale"],
                         calls["transition.transition_scale"]),
        "transition.log_form_scale.self_s": own["transition.log_form_scale"],
        "transition.numeric_crossover.calls": calls[ROOT],
        "transition.numeric_crossover.self_s": own[ROOT],
        "transition.evals_per_root": _ratio(stats["evals_in_roots"], calls[ROOT]),
        "transition.monte_carlo_scale.self_s": own["transition.monte_carlo_scale"],
        "transition.mc_samples_per_s": _ratio(counts["transition.mc_samples"],
                                              total["transition.monte_carlo_scale"]),
        "dissipation.solar_budget.calls": calls["dissipation.solar_budget"],
        "dissipation.solar_budget.self_s": own["dissipation.solar_budget"],
        "dissipation.kappa_from_solar_bound.self_s": own["dissipation.kappa_from_solar_bound"],
        "report.run_sweep.self_s": own["report.run_sweep"],
        "report.render.self_s": own["report.render"],
        "report.rows": counts["report.rows"],
        "report.error_rows": counts["report.error_rows"],
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": stats["layer_self"]["cli"],
        "cli.output_bytes": output_bytes,
    }
    return {name: float(value) for name, value in m.items()}
