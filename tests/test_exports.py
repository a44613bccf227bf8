"""The package namespace, and the exports that the benchmark harness reads.

The package loads a module on first use: an export's first access
imports its owning module and binds into the package namespace the
exports of every package module loaded by then. ``bench/worker.py``
calls the exports on the package, and ``bench/tracer.py``, after a
warm-up pass, times the functions found in ``vars(zpfcross)`` and the
listed class methods in their own class namespace; a name dropped from
the export table, or left unbound after the pass that reached it, would
break a workload or silently zero a per-layer metric.
"""

import importlib
import inspect
import os
import pickle
import subprocess
import sys

import pytest

import zpfcross
from zpfcross.spectra import PowerLawTurbulence

# the tracer also looks for ``power`` and ``propagate``; it skips a name the
# package no longer defines, so their call counts read 0
FUNCTIONS = ("transition_scale", "log_form_scale", "monte_carlo_scale", "numeric_crossover",
             "amplitude_from_kappa", "solar_budget", "kappa_from_solar_bound",
             "run_sweep", "render")
METHODS = (("CosmologyContext", "default"), ("Boyer", "from_context"),
           ("TruncatedBoyer", "from_context"), ("PowerLawTurbulence", "from_kappa"),
           ("Dimension", "__mul__"), ("Dimension", "__truediv__"), ("Dimension", "__pow__"))


def fresh_python(script, *args, stdin=None):
    """stdout of ``script`` run with ``args`` in a new interpreter that
    imports zpfcross from the tested tree."""
    src = os.path.dirname(os.path.dirname(zpfcross.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script, *args], input=stdin, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


@pytest.mark.parametrize("name", FUNCTIONS)
def test_function_exported(name):
    value = getattr(zpfcross, name)
    assert inspect.isfunction(value)
    assert value.__module__.startswith("zpfcross.")
    assert vars(sys.modules[value.__module__])[name] is value
    assert vars(zpfcross)[name] is value


@pytest.mark.parametrize("cls_name, method", METHODS)
def test_method_in_its_class_namespace(cls_name, method):
    cls = getattr(zpfcross, cls_name)
    assert inspect.isclass(cls)
    assert vars(zpfcross)[cls_name] is cls
    assert method in vars(cls)


def test_every_spectrum_model_defines_evaluate():
    base = getattr(zpfcross, "SpectrumModel")
    exported = [getattr(zpfcross, name) for name in zpfcross.__all__]
    models = [cls for cls in vars(zpfcross).values()
              if inspect.isclass(cls) and issubclass(cls, base) and not inspect.isabstract(cls)]
    assert set(models) == {cls for cls in exported if inspect.isclass(cls)
                           and issubclass(cls, base) and not inspect.isabstract(cls)}
    assert {cls.__name__ for cls in models} >= {"Boyer", "TruncatedBoyer",
                                                "PowerLawTurbulence", "MoisseevShivamoggi"}
    assert all("evaluate" in vars(cls) for cls in models)


def test_a_query_binds_the_exports_of_every_module_it_loads():
    # what the tracer reads after its warm-up pass: bound calls
    # kappa_from_solar_bound, which calls transition_scale from its own module
    script = ("import contextlib, io, zpfcross\n"
              "from zpfcross.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['bound', '--slope', '1.8']) == 0\n"
              "print(' '.join(sorted(set(vars(zpfcross)) & set(zpfcross.__all__))))\n")
    bound = set(fresh_python(script).split())
    assert {"transition_scale", "solar_budget", "kappa_from_solar_bound"} <= bound
    assert not bound & {"run_sweep", "render", "SweepSpec", "ReportRow"}  # report is not loaded


def test_all_is_the_export_table():
    table = [name for names in zpfcross._EXPORTS.values() for name in names]
    assert zpfcross.__all__ == table
    assert len(set(table)) == len(table)
    for module, names in zpfcross._EXPORTS.items():
        owner = importlib.import_module(f"zpfcross.{module}")
        for name in names:
            assert getattr(zpfcross, name) is getattr(owner, name), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from zpfcross import *", namespace)
    assert set(zpfcross.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(zpfcross, name) for name in zpfcross.__all__)
    assert set(zpfcross.__all__) <= set(dir(zpfcross))


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'zpfcross' has no attribute 'warp'"):
        zpfcross.warp
    assert not hasattr(zpfcross, "warp")


def test_records_unpickle_in_a_fresh_interpreter(ctx):
    records = (zpfcross.transition_scale(1.8, 1e-5, ctx),
               PowerLawTurbulence.from_kappa(ctx, 1e-5, 1.8))
    script = ("import pickle, sys, zpfcross\n"
              "print(repr(pickle.loads(sys.stdin.buffer.read())))\n")
    assert fresh_python(script, stdin=pickle.dumps(records)) == repr(records) + "\n"
