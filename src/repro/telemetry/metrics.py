"""Process-wide counters, gauges, and histograms.

One :data:`METRICS` registry per process.  Metrics are created (or
fetched — creation is idempotent) by name::

    METRICS.counter("repro_jobs_cache_hits_total", "...", ("stage",)).inc(stage="trace")
    METRICS.gauge("repro_analyzer_instructions_per_second", "...", ("program", "engine"))

and exported as a JSON document (``metrics.json``) for
``repro-trace --summary`` and CI.  Every update is a couple
of dict operations, so hot code samples values at stage or segment
boundaries and hands them over — never per instruction.

The standard pipeline metrics are registered eagerly at import (see
:data:`STANDARD_METRICS`), so the export always contains the full
registry of names even for stages that did not run.
"""

from __future__ import annotations

from pathlib import Path
import json

#: Default histogram buckets (seconds-flavored).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def _label_key(labelnames: tuple[str, ...], labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Base: a named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._samples: dict[tuple, float] = {}

    def samples(self) -> list[tuple[dict, float]]:
        """``(labels, value)`` pairs in deterministic (sorted-key) order."""
        return [
            (dict(zip(self.labelnames, key)), value)
            for key, value in sorted(self._samples.items())
        ]

    def clear(self) -> None:
        self._samples.clear()

    # -- exports -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": labels, "value": value}
                for labels, value in self.samples()
            ],
        }


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._samples.get(_label_key(self.labelnames, labels), 0)


class Gauge(Metric):
    """A point-in-time sampled value."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._samples[_label_key(self.labelnames, labels)] = value

    def set_max(self, value: float, **labels: object) -> None:
        """Keep the largest value ever observed (peak tracking)."""
        key = _label_key(self.labelnames, labels)
        if value > self._samples.get(key, float("-inf")):
            self._samples[key] = value

    def value(self, **labels: object) -> float:
        return self._samples.get(_label_key(self.labelnames, labels), 0)


class Histogram(Metric):
    """Cumulative-bucket histogram: bucket *b* counts observations <= *b*."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        # per label key: [bucket counts..., +Inf count, sum]
        self._hist: dict[tuple, list[float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(self.labelnames, labels)
        cells = self._hist.get(key)
        if cells is None:
            cells = [0.0] * (len(self.buckets) + 2)
            self._hist[key] = cells
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                cells[i] += 1
        cells[-2] += 1  # +Inf
        cells[-1] += value

    def clear(self) -> None:
        self._hist.clear()

    def samples(self) -> list[tuple[dict, float]]:
        """``(labels, count)`` pairs — the observation counts per series."""
        return [
            (dict(zip(self.labelnames, key)), cells[-2])
            for key, cells in sorted(self._hist.items())
        ]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "samples": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "buckets": {
                        str(bound): cells[i]
                        for i, bound in enumerate(self.buckets)
                    },
                    "count": cells[-2],
                    "sum": cells[-1],
                }
                for key, cells in sorted(self._hist.items())
            ],
        }


class MetricsRegistry:
    """All metrics of one process, by name."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Clear every sample, keeping the registered metric families."""
        for metric in self._metrics.values():
            metric.clear()

    # -- exports -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "metrics": [
                self._metrics[name].to_json() for name in sorted(self._metrics)
            ]
        }

    def write(self, directory: str | Path) -> Path:
        """Write ``metrics.json`` under *directory*; return its path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        json_path = directory / "metrics.json"
        json_path.write_text(
            json.dumps(self.to_json(), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        return json_path


METRICS = MetricsRegistry()

#: The standard pipeline metrics — the registry of names documented in
#: ``docs/telemetry.md``.  ``(kind, name, help, labelnames)``.
STANDARD_METRICS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    (
        "gauge",
        "repro_vm_instructions_per_second",
        "Interpreter throughput of the most recent VM.run, per program",
        ("program",),
    ),
    (
        "gauge",
        "repro_analyzer_instructions_per_second",
        "Trace records swept per second by the most recent analyze call",
        ("program", "engine"),
    ),
    (
        "counter",
        "repro_jobs_cache_hits_total",
        "Farm jobs satisfied from the artifact cache, per stage",
        ("stage",),
    ),
    (
        "counter",
        "repro_jobs_cache_misses_total",
        "Farm jobs that had to execute, per stage",
        ("stage",),
    ),
    (
        "counter",
        "repro_jobs_stage_seconds_total",
        "CPU-ish seconds spent executing farm jobs, per stage",
        ("stage",),
    ),
    (
        "gauge",
        "repro_jobs_queue_depth_peak",
        "Peak number of farm jobs pending or running at once",
        (),
    ),
    (
        "counter",
        "repro_jobs_dead_total",
        "Farm jobs quarantined after their failure, per stage",
        ("stage",),
    ),
    (
        "counter",
        "repro_jobs_corrupt_artifacts_total",
        "Cache artifacts that failed integrity verification and were "
        "quarantined, per artifact kind",
        ("kind",),
    ),
    (
        "counter",
        "repro_trace_bytes_written_total",
        "Uncompressed RTRC payload bytes written by save_trace",
        (),
    ),
    (
        "counter",
        "repro_trace_bytes_read_total",
        "Uncompressed RTRC payload bytes read by load_trace",
        (),
    ),
    (
        "counter",
        "repro_profile_branches_total",
        "Dynamic conditional branches folded into branch profiles",
        ("program",),
    ),
    (
        "histogram",
        "repro_compile_seconds",
        "Wall seconds per MiniC compile (source to Program)",
        (),
    ),
    (
        "counter",
        "repro_static_analysis_seconds",
        "Wall seconds spent in whole-program static analysis, per program",
        ("program",),
    ),
    (
        "counter",
        "repro_vm_blocks_compiled_total",
        "Specialized VM dispatch handlers compiled (one per block, or per "
        "mid-block jump landing), per program",
        ("program",),
    ),
    (
        "counter",
        "repro_vm_legacy_tail_total",
        "FastVM runs that handed off to the legacy interpreter tail, "
        "per program",
        ("program",),
    ),
    (
        "counter",
        "repro_trace_chunks_written_total",
        "RTRC v2 frames written by TraceWriter",
        (),
    ),
    (
        "counter",
        "repro_trace_chunks_read_total",
        "RTRC v2 frames read by TraceReader",
        (),
    ),
)


def _register_standard(registry: MetricsRegistry) -> None:
    for kind, name, help_text, labelnames in STANDARD_METRICS:
        getattr(registry, kind)(name, help_text, labelnames)


_register_standard(METRICS)
