"""Benchmark-suite configuration.

Scales are controlled by ``REPRO_SCALE`` (quick | bench | default |
paper); the Table-1 calibration defaults to ``bench`` (600 nodes, 800
events).  ``REPRO_SCALE=paper`` reruns the paper's exact sizes (1740
nodes, 20,000 events).  The figures themselves are ``python -m repro
<exp>``.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _print_scale():
    from repro.experiments.common import scale_from_env

    nodes, events = scale_from_env()
    print(f"\n[repro] benchmark scale: {nodes} nodes, {events} events")
    yield
