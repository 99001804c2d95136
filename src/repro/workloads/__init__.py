"""Synthetic workloads (Section 5.1).

"We use synthetic datasets in our simulations.  Events are generated
based on Zipfian distribution ...  Subscriptions are generated from a
template with the following properties: (1) the size of the range on
each dimension is based on zipfian distribution; (2) the center of the
range is based on the data distribution."

The paper's Table 1 (scheme and properties) is OCR-garbled in the
available text; :func:`~repro.workloads.spec.default_paper_spec`
reconstructs it (4 attributes, per-dimension skews and hotspots) and
documents every reconstructed value.
"""

from repro.workloads.zipf import ZipfSampler, zipf_cdf
from repro.workloads.spec import AttributeSpec, WorkloadSpec, default_paper_spec
from repro.workloads.generator import WorkloadGenerator

__all__ = [
    "ZipfSampler",
    "zipf_cdf",
    "AttributeSpec",
    "WorkloadSpec",
    "default_paper_spec",
    "WorkloadGenerator",
]
