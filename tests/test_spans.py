"""The benchmark's traced names must resolve against the current program,
and its verify workload must find the check count it expects.

perfbench/spans.py and perfbench/workloads.py are loaded by path and only
read: no wrapper is installed.
"""

import importlib.util
import sys
from pathlib import Path

import hho.cli  # noqa: F401  (imports every traced hho module, as the child does)
from test_acceptance import verification_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    layers = load_perfbench("spans").LAYERS
    names = [full for names in layers.values() for full in names]
    assert names
    for full in names:
        # the lookup of spans.install(), without the rebinding
        modname, attr = full.split(":")
        assert modname in sys.modules, full
        module = sys.modules[modname]
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if isinstance(owner, type):
            assert leaf in owner.__dict__, full
        else:
            assert callable(getattr(owner, leaf, None)), full


def test_default_verify_suite_has_the_benchmark_check_count():
    # verify-mesh runs the default suite (the acceptance suite's shared
    # report) plus one mesh-matching check of its --mesh file; any other
    # count makes the benchmark score every run as failed
    expected = load_perfbench("workloads").WORKLOADS["verify-mesh"]["checks"]
    assert len(verification_report()["checks"]) == expected - 1
