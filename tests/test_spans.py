"""The traced benchmark run wraps the torsflow names listed in
perfbench/spans.py; each must exist, or only the traced run notices that
one is gone."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, name", spans.FUNCTIONS)
def test_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"torsflow.{module}"), name))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS)
def test_wrapped_method_exists(module, cls, method, span):
    owner = getattr(importlib.import_module(f"torsflow.{module}"), cls)
    assert callable(getattr(owner, method))
