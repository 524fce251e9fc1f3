"""The benchmark's traced names must resolve against the current program.

perfbench/spans.py is loaded by path and only read: no wrapper is installed.
"""

import importlib.util
import sys
from pathlib import Path

import hho.cli  # noqa: F401  (imports every traced hho module, as the child does)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_names_resolve():
    names = [full for names in load_layers().values() for full in names]
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
