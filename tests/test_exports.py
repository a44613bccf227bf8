"""The package exports that the benchmark harness reads.

``bench/worker.py`` calls these names on the package, and
``bench/tracer.py`` times the functions found in the package namespace
and the listed class methods in their own class namespace; a name
dropped from ``__init__`` would break a workload or silently zero a
per-layer metric.
"""

import inspect

import pytest

import zpfcross

# the tracer also looks for ``power`` and ``propagate``; it skips a name the
# package no longer defines, so their call counts read 0
FUNCTIONS = ("transition_scale", "log_form_scale", "monte_carlo_scale", "numeric_crossover",
             "amplitude_from_kappa", "solar_budget", "kappa_from_solar_bound",
             "run_sweep", "render")
METHODS = (("CosmologyContext", "default"), ("Boyer", "from_context"),
           ("TruncatedBoyer", "from_context"), ("PowerLawTurbulence", "from_kappa"),
           ("Dimension", "__mul__"), ("Dimension", "__truediv__"), ("Dimension", "__pow__"))


@pytest.mark.parametrize("name", FUNCTIONS)
def test_function_exported(name):
    value = vars(zpfcross).get(name)
    assert inspect.isfunction(value)
    assert value.__module__.startswith("zpfcross.")


@pytest.mark.parametrize("cls_name, method", METHODS)
def test_method_in_its_class_namespace(cls_name, method):
    cls = vars(zpfcross).get(cls_name)
    assert inspect.isclass(cls)
    assert method in vars(cls)


def test_every_spectrum_model_defines_evaluate():
    base = vars(zpfcross).get("SpectrumModel")
    models = [cls for cls in vars(zpfcross).values()
              if inspect.isclass(cls) and issubclass(cls, base) and not inspect.isabstract(cls)]
    assert {cls.__name__ for cls in models} >= {"Boyer", "TruncatedBoyer",
                                                "PowerLawTurbulence", "MoisseevShivamoggi"}
    assert all("evaluate" in vars(cls) for cls in models)
