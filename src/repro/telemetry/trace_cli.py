"""``repro-trace`` — reassemble and summarize a telemetry directory.

Usage::

    repro-trace OUT                     # waterfall per trace
    repro-trace OUT --trace 8f1c        # only traces whose id starts 8f1c
    repro-trace OUT --slowest 10        # flat top-10 spans by duration
    repro-trace OUT --flame             # flamegraph.pl collapsed stacks
    repro-trace OUT --critical-path     # per-stage critical-path table
    repro-trace OUT --summary           # span, percentile, metric tables
    repro-trace OUT --json              # machine-readable forest/summary

Reads ``spans.jsonl`` plus any unmerged ``worker-*.jsonl`` files
written by ``repro-experiments --telemetry-dir OUT``.  By default it
*stitches*: records are grouped by their ``trace`` id and linked
``parent`` → ``id`` into a span forest, across process boundaries — the
``farm.execute`` span recorded by ``repro-experiments`` and the
``job.analyze`` span from a pool worker's ``worker-<pid>.jsonl`` land in
one tree when they share a trace id.

``--summary`` *aggregates* instead: spans by (span name, benchmark) with
count and total/mean/max seconds, nearest-rank p50/p95/p99 durations per
span name, and every sampled metric from ``metrics.json`` (written with
``--metrics``).  This is the before/after evidence format for perf
changes — run the same experiment on both sides and diff the tables.

Spans whose parent id never appears in the loaded records (the parent
process crashed before flushing, or only a worker file was collected)
are kept as *orphan roots* and marked in the rendering rather than
dropped: partial traces are exactly what you have when debugging.
Records with no trace id are grouped under the ``untraced`` bucket.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.telemetry.sinks import load_spans

#: Trace-group key for spans that carry no distributed trace id.
UNTRACED = "untraced"

#: Width of the waterfall bar column, in characters.
BAR_WIDTH = 40


class SpanNode:
    """One span record plus its reconstructed children."""

    __slots__ = ("record", "children", "orphan")

    def __init__(self, record: dict, orphan: bool = False):
        self.record = record
        self.children: list["SpanNode"] = []
        self.orphan = orphan

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def ts(self) -> float:
        return float(self.record.get("ts", 0.0))

    @property
    def dur(self) -> float:
        return float(self.record.get("dur", 0.0))

    @property
    def pid(self) -> object:
        return self.record.get("pid", "?")

    def to_json(self) -> dict:
        doc = dict(self.record)
        if self.orphan:
            doc["orphan"] = True
        if self.children:
            doc["children"] = [child.to_json() for child in self.children]
        return doc


def group_by_trace(records: list[dict]) -> dict[str, list[dict]]:
    """Span records bucketed by trace id (``None`` → ``untraced``)."""
    groups: dict[str, list[dict]] = {}
    for record in records:
        trace = record.get("trace") or UNTRACED
        groups.setdefault(str(trace), []).append(record)
    return groups


def build_forest(records: list[dict]) -> list[SpanNode]:
    """Link one trace's records into roots (parents before children).

    A record whose ``parent`` id is absent from *records* becomes an
    orphan root; duplicated span ids keep the first record seen (the
    merge order is deterministic: coordinator file, then workers sorted
    by filename).  Roots and children are sorted by start timestamp.
    """
    nodes: dict[str, SpanNode] = {}
    anonymous: list[SpanNode] = []
    for record in records:
        node = SpanNode(record)
        span_id = record.get("id")
        if span_id is None:
            anonymous.append(node)
        elif str(span_id) not in nodes:
            nodes[str(span_id)] = node
    roots: list[SpanNode] = []
    for node in list(nodes.values()) + anonymous:
        parent_id = node.record.get("parent")
        if parent_id is None:
            roots.append(node)
            continue
        parent = nodes.get(str(parent_id))
        if parent is None or parent is node:
            node.orphan = True
            roots.append(node)
        else:
            parent.children.append(node)
    for node in list(nodes.values()) + anonymous:
        node.children.sort(key=lambda child: child.ts)
    roots.sort(key=lambda root: root.ts)
    return roots


def _walk(roots: list[SpanNode]):
    """Yield ``(node, depth)`` depth-first over the forest."""
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in reversed(node.children):
            stack.append((child, depth + 1))


def _extent(roots: list[SpanNode]) -> tuple[float, float]:
    """(earliest start, latest end) over the whole forest."""
    t0 = min(node.ts for node, _ in _walk(roots))
    t1 = max(node.ts + node.dur for node, _ in _walk(roots))
    return t0, max(t1, t0)


def render_waterfall(roots: list[SpanNode], width: int = BAR_WIDTH) -> str:
    """An indented waterfall: one line per span, bars on a shared clock."""
    t0, t1 = _extent(roots)
    window = t1 - t0
    lines = []
    entries = []
    label_width = 0
    for node, depth in _walk(roots):
        label = "  " * depth + node.name
        if node.orphan:
            label += " (orphan)"
        label_width = max(label_width, len(label))
        entries.append((node, label))
    for node, label in entries:
        if window > 0:
            start = int((node.ts - t0) / window * width)
            length = max(1, int(node.dur / window * width))
            start = min(start, width - 1)
            length = min(length, width - start)
        else:
            start, length = 0, width
        bar = " " * start + "#" * length
        lines.append(
            f"{label.ljust(label_width)}  |{bar.ljust(width)}| "
            f"{node.dur * 1000:10.3f} ms  pid={node.pid}"
        )
    return "\n".join(lines)


def collapse_stacks(roots: list[SpanNode]) -> dict[str, int]:
    """Collapsed stacks (``a;b;c`` → self-time in μs), flamegraph.pl form.

    Self time is the span's duration minus its children's, clamped at
    zero — concurrent children (farm workers under one schedule span)
    can sum past their parent's wall time.
    """
    stacks: dict[str, int] = {}
    frames = [(root, root.name) for root in roots]
    while frames:
        node, stack = frames.pop()
        self_seconds = node.dur - sum(c.dur for c in node.children)
        micros = int(max(self_seconds, 0.0) * 1e6)
        stacks[stack] = stacks.get(stack, 0) + micros
        for child in node.children:
            frames.append((child, f"{stack};{child.name}"))
    return stacks


def render_flame(stacks: dict[str, int]) -> str:
    return "\n".join(
        f"{stack} {value}" for stack, value in sorted(stacks.items())
    )


def slowest_spans(records: list[dict], n: int) -> list[dict]:
    """The *n* longest spans, across every trace."""
    ranked = sorted(
        records, key=lambda r: float(r.get("dur", 0.0)), reverse=True
    )
    return ranked[:n]


def critical_path(roots: list[SpanNode]) -> list[dict]:
    """The longest-duration chain from the forest's longest root.

    Each step reports the stage's *exclusive* contribution — its
    duration minus the chosen child's — which attributes the end-to-end
    wall time across the pipeline stages that actually gate it.
    """
    if not roots:
        return []
    node = max(roots, key=lambda r: r.dur)
    path = []
    while True:
        child = max(node.children, key=lambda c: c.dur, default=None)
        exclusive = node.dur - (child.dur if child is not None else 0.0)
        path.append(
            {
                "name": node.name,
                "pid": node.pid,
                "dur_s": node.dur,
                "exclusive_s": max(exclusive, 0.0),
            }
        )
        if child is None:
            return path
        node = child


def _render_critical_path(path: list[dict]) -> str:
    total = path[0]["dur_s"] if path else 0.0
    lines = []
    for step in path:
        share = step["exclusive_s"] / total * 100 if total > 0 else 0.0
        lines.append(
            f"  {step['name']:<24} {step['dur_s'] * 1000:10.3f} ms total  "
            f"{step['exclusive_s'] * 1000:10.3f} ms self ({share:.1f}%)  "
            f"pid={step['pid']}"
        )
    return "\n".join(lines)


def _trace_header(trace_id: str, roots: list[SpanNode]) -> str:
    spans = sum(1 for _ in _walk(roots))
    pids = {node.pid for node, _ in _walk(roots)}
    t0, t1 = _extent(roots)
    return (
        f"trace {trace_id}: {spans} spans, {len(pids)} process(es), "
        f"{(t1 - t0) * 1000:.3f} ms wall"
    )


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


#: Percentiles of the ``--summary`` duration table.
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


def render_span_table(rows: list[dict]) -> str:
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


def render_percentile_table(rows: list[dict]) -> str:
    body = [
        [row["span"], str(row["count"])]
        + [f"{row[f'p{q}_s']:.4f}" for q in PERCENTILES]
        + [f"{row['max_s']:.4f}"]
        for row in rows
    ]
    headers = ["span", "count"] + [f"p{q} s" for q in PERCENTILES] + ["max s"]
    return _render_table(headers, body)


def render_metrics_table(metrics: list[dict]) -> str:
    """One row per metric sample; metrics with no samples are omitted."""
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
    return _render_table(["metric", "type", "labels", "value"], rows)


def _load_metrics(directory: Path) -> list[dict]:
    path = directory / "metrics.json"
    if not path.is_file():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    return payload.get("metrics", [])


def _print_summary(
    directory: Path, records: list[dict], metrics: list[dict], as_json: bool
) -> None:
    """The ``--summary`` tables (or their JSON document)."""
    spans = aggregate_spans(records)
    percentiles = aggregate_percentiles(records)
    if as_json:
        document = {
            "spans": spans, "percentiles": percentiles, "metrics": metrics
        }
        print(json.dumps(document, sort_keys=True, indent=1))
        return
    print(f"telemetry: {directory} ({len(records)} spans)")
    print()
    print(render_span_table(spans))
    if percentiles:
        print()
        print(render_percentile_table(percentiles))
    sampled = [m for m in metrics if m.get("samples")]
    if sampled:
        print()
        print(render_metrics_table(sampled))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Reassemble and render distributed traces from a "
        "telemetry directory (spans.jsonl + worker-*.jsonl).",
    )
    parser.add_argument("directory", metavar="DIR", help="telemetry directory")
    parser.add_argument(
        "--trace", metavar="PREFIX", default=None,
        help="only render traces whose id starts with PREFIX",
    )
    parser.add_argument(
        "--slowest", type=int, default=None, metavar="N",
        help="print the N longest spans across all traces and exit",
    )
    parser.add_argument(
        "--flame", action="store_true",
        help="emit flamegraph.pl collapsed stacks instead of waterfalls",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="append per-stage critical-path attribution to each trace",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="print the span, p50/p95/p99 and sampled-metric tables "
        "instead of waterfalls",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the reconstructed forest (or, with --summary, the "
        "summary) as JSON",
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
            f"repro-trace: no such directory: {directory} "
            "(did the producing run pass --telemetry-dir?)",
            file=sys.stderr,
        )
        return empty_status
    records = load_spans(directory)
    metrics = _load_metrics(directory) if args.summary else []
    if not records and not metrics:
        print(
            f"repro-trace: {directory} holds no "
            + ("spans and no metrics" if args.summary else "spans")
            + " (did the producing run pass --telemetry-dir?)",
            file=sys.stderr,
        )
        return empty_status

    groups = group_by_trace(records)
    if args.trace is not None:
        groups = {
            trace: recs
            for trace, recs in groups.items()
            if trace.startswith(args.trace)
        }
        if not groups:
            print(
                f"repro-trace: no trace id starts with {args.trace!r}",
                file=sys.stderr,
            )
            return 1
        records = [r for recs in groups.values() for r in recs]

    if args.summary:
        _print_summary(directory, records, metrics, args.json)
        return 0

    if args.slowest is not None:
        for record in slowest_spans(records, args.slowest):
            trace = record.get("trace") or UNTRACED
            print(
                f"{float(record.get('dur', 0.0)) * 1000:10.3f} ms  "
                f"{record.get('name', '?'):<24} pid={record.get('pid', '?')}"
                f"  trace={str(trace)[:12]}"
            )
        return 0

    forests = {
        trace: build_forest(recs) for trace, recs in sorted(groups.items())
    }

    if args.json:
        document = {
            trace: [root.to_json() for root in roots]
            for trace, roots in forests.items()
        }
        print(json.dumps(document, sort_keys=True, indent=1))
        return 0

    if args.flame:
        merged: dict[str, int] = {}
        for roots in forests.values():
            for stack, value in collapse_stacks(roots).items():
                merged[stack] = merged.get(stack, 0) + value
        print(render_flame(merged))
        return 0

    ordered = sorted(
        forests.items(), key=lambda item: _extent(item[1])[0]
    )
    first = True
    for trace, roots in ordered:
        if not first:
            print()
        first = False
        print(_trace_header(trace, roots))
        print(render_waterfall(roots))
        if args.critical_path:
            print("critical path:")
            print(_render_critical_path(critical_path(roots)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
