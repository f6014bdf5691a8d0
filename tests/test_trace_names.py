"""The benchmark tracer wraps hyperbell functions by name; each must exist.

``perfbench/tracing.py`` looks every ``LAYERS`` entry up with ``getattr`` on
its hyperbell module, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1``.  This test makes such a change fail here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module_name,functions", sorted(_layers().items()))
def test_traced_names_exist(module_name, functions):
    module = importlib.import_module(f"hyperbell.{module_name}")
    missing = [fn for fn in functions if not callable(getattr(module, fn, None))]
    assert missing == []
