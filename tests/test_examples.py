"""The fast examples run end to end.

Each example asserts its own outcome (quickstart: only the sauna watch
matches; load_balancing_demo: deliveries stay exact after migration and
the peak load falls; ...), so running it as ``__main__`` is the test.
``examples/resilient_network.py`` takes about 100 s and runs in CI's
``guarantees-smoke`` job instead.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "name",
    ["quickstart", "auction_house", "stock_ticker", "load_balancing_demo", "trace_event",
     "gray_failures"],
)
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
