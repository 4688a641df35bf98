"""Zero-dependency observability for the compile→trace→analyze pipeline.

Three instruments, all off by default and all no-ops when off:

* **spans** — hierarchical wall-time regions written as JSON lines to a
  telemetry directory (:func:`span` / :func:`traced`);
* **metrics** — process-wide counters/gauges/histograms in the
  :data:`METRICS` registry, exported as JSON
  (:mod:`repro.telemetry.metrics`);
* **profiling** — opt-in :mod:`cProfile` capture around stages
  (:func:`profiled`, armed by ``--profile``).

Enable with :func:`configure`, typically via ``repro-experiments
--telemetry-dir OUT [--metrics] [--profile]``; inspect with the
``repro-trace`` CLI (``--summary`` for the tables).  Farm worker
processes write spans to per-worker sink files that the engine folds
into the main ``spans.jsonl`` (:func:`merge_worker_sinks`).  See
``docs/telemetry.md``.
"""

from repro.telemetry.metrics import METRICS, MetricsRegistry, STANDARD_METRICS
from repro.telemetry.profiler import profiled
from repro.telemetry.sinks import load_spans, merge_worker_sinks
from repro.telemetry.spans import current_span, record_span, span, traced
from repro.telemetry.state import (
    configure,
    enabled,
    flush,
    profiling,
    shutdown,
    telemetry_dir,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "STANDARD_METRICS",
    "configure",
    "current_span",
    "enabled",
    "flush",
    "load_spans",
    "merge_worker_sinks",
    "profiled",
    "profiling",
    "record_span",
    "shutdown",
    "span",
    "telemetry_dir",
    "traced",
]


def write_metrics(directory=None):
    """Export ``metrics.json`` (default: telemetry dir); return its path."""
    target = directory if directory is not None else telemetry_dir()
    if target is None:
        raise ValueError(
            "no directory given and telemetry is not configured"
        )
    return METRICS.write(target)
