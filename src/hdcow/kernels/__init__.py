"""The dead-time kernel.

``dead_time_filter`` is the sequential scan in ``_ref``; ``BACKEND``
names that implementation ("python") and is recorded with benchmark
results, which are only compared between runs of the same backend.
"""

from ._ref import BACKEND, dead_time_filter

__all__ = ["BACKEND", "dead_time_filter"]
