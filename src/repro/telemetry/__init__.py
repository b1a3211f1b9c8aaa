"""Telemetry: the control plane's counters and histograms (S V-A).

:class:`~repro.server.api.ControlPlaneAPI` keeps one
:class:`MetricsRegistry` and serves its :meth:`~MetricsRegistry.snapshot`
at ``GET /v1/metrics``.  A local run keeps no registry: its report is
its record.
"""

from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["Counter", "Histogram", "MetricsRegistry"]
