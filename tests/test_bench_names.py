"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps engine
functions by name.  These tests read those names from
``perfbench/layertrace.py`` without installing the tracer and check that
each still resolves in ``zzl``, so that a rename in the engine fails here
rather than only in the benchmark's own self-check."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import zzl.lang

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _layertrace()


@pytest.mark.parametrize("metric", sorted(layertrace.FUNCTIONS))
def test_traced_function_resolves(metric):
    modname, attr = layertrace.FUNCTIONS[metric]
    assert modname.split(".")[0] == "zzl"
    owner = importlib.import_module(modname)
    if "." in attr:
        # the tracer wraps a method on the class that defines it
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr


@pytest.mark.parametrize("prop", layertrace.DOCUMENT_PROPERTIES)
def test_traced_document_property_resolves(prop):
    assert isinstance(vars(zzl.lang.Document).get(prop), property)
