"""The callables that the benchmark's traced runs wrap exist on the package.

`perfbench/child.py` wraps every `(module, attribute)` of its `TRACED` table,
and `StroboOperator.matvec`, before the command runs and outside the guard
that reports a failed command: a name that is renamed or deleted fails
every traced run.  This test reads the table from the script itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_callable_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"strobofp.{module}"), attr))


def test_traced_product_resolves():
    from strobofp.operator_core import StroboOperator

    assert callable(StroboOperator.matvec)
