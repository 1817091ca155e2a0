"""``repro.obs`` — the unified observability layer (metrics + tracing).

FliX's value claim is that per-meta-document strategy selection beats any
single index; proving that on a live workload needs numbers from the query
path, not just build-time timings.  This package supplies them,
dependency-free:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with interpolated p50/p95/p99 (:mod:`repro.obs.registry`);
* :class:`Tracer` / :class:`Trace` / :class:`Span` — per-query span trees
  with monotonic timings and parent/child nesting
  (:mod:`repro.obs.tracing`);
* :func:`render_json` / :func:`render_prometheus` — structured JSON and
  Prometheus text-format exporters (:mod:`repro.obs.export`);
* :class:`Observability` — the bundle (one registry + one tracer) that a
  :class:`repro.core.framework.Flix` instance owns and threads through
  the evaluator, the Index Builder and the write-ahead log.

Everything is opt-out through ``FlixConfig.observability``: a disabled
:class:`Observability` hands out no-op instruments and null traces, the
instrumented components skip their recording branches entirely, and both
exporters render an empty document.  See ``docs/OBSERVABILITY.md`` for the
full metric catalog and a worked trace example.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import (
    EXPORT_FORMATS,
    registry_to_dict,
    render,
    render_json,
    render_prometheus,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.tracing import NULL_TRACER, Span, Trace, Tracer


class Observability:
    """One registry + one tracer, owned by a ``Flix`` instance.

    ``enabled`` gates everything: hot paths check it once and skip their
    instrumentation branches when off, so the opt-out costs a single
    attribute load.  Components receive the whole bundle instead of the
    registry alone so that span emission and counting always agree on
    whether observability is on.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(
        self,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry(enabled)
        self.tracer = tracer if tracer is not None else Tracer(enabled)


#: shared disabled bundle — the default for bare evaluators and builders
OBS_OFF = Observability(enabled=False, registry=NULL_REGISTRY, tracer=NULL_TRACER)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Trace",
    "Span",
    "render",
    "render_json",
    "render_prometheus",
    "registry_to_dict",
    "DEFAULT_LATENCY_BUCKETS",
    "EXPORT_FORMATS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "OBS_OFF",
]
