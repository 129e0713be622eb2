"""The names the benchmark's tracer wraps must exist where it looks for them.

``bench/spans.py`` replaces module functions and class methods of the
``schauder`` package by name; a rename or deletion would make ``bench/run.py
--trace 1`` fail at install time.  This test loads the span tables by path
and resolves every entry against the package.
"""

import importlib.util
from pathlib import Path

import pytest

import schauder
import schauder.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", _spans().FUNCTIONS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_function_resolves(entry):
    _, module, attr, _ = entry
    assert callable(getattr(getattr(schauder, module), attr))


@pytest.mark.parametrize("entry", _spans().METHODS, ids=lambda e: f"{e[2]}.{e[3]}")
def test_traced_method_is_in_its_class_body(entry):
    _, module, cls_name, method, _ = entry
    cls = getattr(getattr(schauder, module), cls_name)
    assert method in cls.__dict__
