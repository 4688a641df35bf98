"""``repro-stats`` — render a telemetry directory as tables.

Usage::

    repro-stats OUT                  # per-stage/per-benchmark span table
    repro-stats OUT --top 15         # longest 15 rows only
    repro-stats OUT --metrics        # also dump every metric sample
    repro-stats OUT --percentiles    # p50/p95/p99 duration per span name
    repro-stats OUT --json           # machine-readable aggregate

Reads the ``spans.jsonl`` (plus any unmerged ``worker-*.jsonl``) and
``metrics.json`` files produced by ``repro-experiments --telemetry-dir
OUT [--metrics]`` and aggregates spans by (span name, benchmark): count,
total/mean/max wall seconds.  This is the before/after evidence format
for perf PRs — run the same experiment on both sides and diff the
tables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.telemetry.sinks import load_spans


def _benchmark_of(record: dict) -> str:
    attrs = record.get("attrs") or {}
    for key in ("benchmark", "program"):
        value = attrs.get(key)
        if value:
            return str(value)
    return "-"


def aggregate_spans(records: list[dict]) -> list[dict]:
    """Aggregate span records by (name, benchmark), sorted by total time."""
    groups: dict[tuple[str, str], dict] = {}
    for record in records:
        key = (str(record.get("name", "?")), _benchmark_of(record))
        row = groups.get(key)
        duration = float(record.get("dur", 0.0))
        if row is None:
            groups[key] = {
                "span": key[0],
                "benchmark": key[1],
                "count": 1,
                "total_s": duration,
                "max_s": duration,
            }
        else:
            row["count"] += 1
            row["total_s"] += duration
            row["max_s"] = max(row["max_s"], duration)
    rows = list(groups.values())
    for row in rows:
        row["mean_s"] = row["total_s"] / row["count"]
    rows.sort(key=lambda r: (-r["total_s"], r["span"], r["benchmark"]))
    return rows


#: Percentiles rendered by ``--percentiles``.
PERCENTILES = (50, 95, 99)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted *sorted_values* (q in 0..100).

    The nearest-rank definition always returns an observed value, which
    keeps tiny samples honest (p99 of 4 requests is the slowest request,
    not an interpolation between two of them).
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


def aggregate_percentiles(records: list[dict]) -> list[dict]:
    """Per-span-name duration percentiles, sorted by total time.

    Groups by span name only (not benchmark): percentile tables answer
    "how slow is this operation across every benchmark".
    """
    groups: dict[str, list[float]] = {}
    for record in records:
        groups.setdefault(str(record.get("name", "?")), []).append(
            float(record.get("dur", 0.0))
        )
    rows = []
    for name, durations in groups.items():
        durations.sort()
        row = {
            "span": name,
            "count": len(durations),
            "total_s": sum(durations),
            "max_s": durations[-1],
        }
        for q in PERCENTILES:
            row[f"p{q}_s"] = percentile(durations, q)
        rows.append(row)
    rows.sort(key=lambda r: (-r["total_s"], r["span"]))
    return rows


def render_percentile_table(rows: list[dict], top: int | None = None) -> str:
    if top is not None:
        rows = rows[:top]
    body = [
        [row["span"], str(row["count"])]
        + [f"{row[f'p{q}_s']:.4f}" for q in PERCENTILES]
        + [f"{row['max_s']:.4f}"]
        for row in rows
    ]
    headers = ["span", "count"] + [f"p{q} s" for q in PERCENTILES] + ["max s"]
    return _render_table(headers, body)


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    lines = [head, "-" * len(head)]
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        )
    return "\n".join(lines)


def render_span_table(rows: list[dict], top: int | None = None) -> str:
    if top is not None:
        rows = rows[:top]
    body = [
        [
            row["span"],
            row["benchmark"],
            str(row["count"]),
            f"{row['total_s']:.3f}",
            f"{row['mean_s']:.4f}",
            f"{row['max_s']:.4f}",
        ]
        for row in rows
    ]
    return _render_table(
        ["span", "benchmark", "count", "total s", "mean s", "max s"], body
    )


def _load_metrics(directory: Path) -> list[dict]:
    path = directory / "metrics.json"
    if not path.is_file():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload.get("metrics", [])


def render_metrics_table(metrics: list[dict], all_samples: bool = False) -> str:
    rows: list[list[str]] = []
    for metric in metrics:
        for sample in metric.get("samples", []):
            labels = sample.get("labels", {})
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            )
            value = sample.get("value", sample.get("count", 0))
            rows.append(
                [metric["name"], metric["type"], label_text or "-", str(value)]
            )
        if all_samples and not metric.get("samples"):
            rows.append([metric["name"], metric["type"], "-", "(no samples)"])
    return _render_table(["metric", "type", "labels", "value"], rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Summarize a repro telemetry directory "
        "(spans.jsonl + metrics.json).",
    )
    parser.add_argument("directory", metavar="DIR", help="telemetry directory")
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N rows with the largest total time",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="also render every registered metric (including empty ones)",
    )
    parser.add_argument(
        "--percentiles", action="store_true",
        help="also render p50/p95/p99 span durations per span name",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the aggregate as JSON instead of tables",
    )
    parser.add_argument(
        "--allow-empty", action="store_true",
        help="exit 0 even when DIR is missing or holds no telemetry "
        "(for optional-telemetry CI steps)",
    )
    args = parser.parse_args(argv)

    # Missing/empty telemetry exits 2 so CI can distinguish "nothing was
    # recorded" (almost always a mis-wired --telemetry-dir) from a real
    # rendering failure (1) and from success (0).
    empty_status = 0 if args.allow_empty else 2

    directory = Path(args.directory)
    if not directory.is_dir():
        print(
            f"repro-stats: no such directory: {directory} "
            "(did the producing run pass --telemetry-dir?)",
            file=sys.stderr,
        )
        return empty_status
    records = load_spans(directory)
    rows = aggregate_spans(records)
    metrics = _load_metrics(directory)
    if not records and not metrics:
        print(
            f"repro-stats: {directory} holds no spans and no metrics "
            "(did the producing run pass --telemetry-dir [--metrics]?)",
            file=sys.stderr,
        )
        return empty_status

    if args.json:
        document = {"spans": rows, "metrics": metrics}
        if args.percentiles:
            document["percentiles"] = aggregate_percentiles(records)
        print(json.dumps(document, sort_keys=True, indent=1))
        return 0

    print(f"telemetry: {directory} ({len(records)} spans)")
    print()
    print(render_span_table(rows, top=args.top))
    if args.percentiles and records:
        print()
        print(render_percentile_table(aggregate_percentiles(records), top=args.top))
    sampled = [m for m in metrics if m.get("samples")]
    if args.metrics or sampled:
        print()
        print(render_metrics_table(metrics if args.metrics else sampled,
                                   all_samples=args.metrics))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
