"""Experiment drivers: one module per paper table/figure plus extensions.

Every driver exposes ``run(scale=...)`` returning a result object and
``main()`` printing the paper-comparable series; ``python -m repro
<name>`` runs one.  The only pytest-benchmark module under
``benchmarks/`` is the Table-1 calibration
(``bench_table1_workload.py``).

Scales (set ``REPRO_SCALE=paper|default|quick`` or pass explicitly):

* ``paper``   -- the paper's sizes (1740 nodes, 20,000 events; Figure 5
  sweeps 2k-16k nodes).  Minutes to hours of wall time.
* ``default`` -- the paper's topology at reduced event counts.
* ``quick``   -- small sanity scale for tests.
"""

from repro.experiments.common import (
    DeliveryConfig,
    DeliveryResult,
    run_delivery,
    scale_from_env,
)

__all__ = [
    "DeliveryConfig",
    "DeliveryResult",
    "run_delivery",
    "scale_from_env",
]
