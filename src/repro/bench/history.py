"""Benchmark history store + ``repro-bench-diff`` regression detector.

Every perf harness in this repo (``repro-analyzer-bench``,
``repro-vm-bench``, the pipeline bench) can append its run to a shared
JSONL history file via ``--history PATH``.  Each line is one
schema-versioned record::

    {"schema": 1, "kind": "vm-bench", "ts": 1754505600.0,
     "git_sha": "2f33645...", "host": {"platform": ..., "python": ...,
     "machine": ..., "cpus": 8},
     "entries": {"gcc.fast_s": {"value": 0.41, "unit": "s",
                                "direction": "lower"},
                 "gcc.speedup": {"value": 5.2, "unit": "x",
                                 "direction": "higher"}}}

``repro-bench-diff`` then compares the latest record of each kind
against the *median* of a trailing window of earlier records.  The
allowed change per metric is noise-aware: the larger of a flat
``--threshold`` fraction and three times the window's observed relative
spread (the second-largest deviation from the median, so one outlier
run cannot widen it), so a metric that historically wobbles 15% between
runs is not flagged over a 20% blip while a historically flat metric is.

The CI wiring is a *soft* gate: with the default ``--fail-on repeated``
a metric must regress in the two most recent records to exit nonzero —
one bad run on a noisy shared host warns, two in a row fail.  Use
``--fail-on any`` for strict local runs and ``--fail-on never`` for
report-only mode.

Histories are append-only and tolerant: torn trailing lines (a run
killed mid-append) and records from a *newer* schema are skipped, so an
old checkout can still diff a history a newer one wrote to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 1

LOWER = "lower"
HIGHER = "higher"


def git_sha() -> str | None:
    """The current commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_fingerprint() -> dict:
    """Enough host identity to explain a cross-machine baseline shift."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def entry(value: float, unit: str, direction: str = LOWER) -> dict:
    """One metric entry; *direction* names which way is better."""
    if direction not in (LOWER, HIGHER):
        raise ValueError(f"direction must be {LOWER!r} or {HIGHER!r}")
    return {"value": float(value), "unit": unit, "direction": direction}


def make_record(kind: str, entries: dict[str, dict]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "ts": time.time(),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "entries": entries,
    }


def append_record(path: str | Path, record: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def append(path: str | Path, kind: str, entries: dict[str, dict]) -> dict:
    """Build and append one record; returns it (bench CLI convenience)."""
    record = make_record(kind, entries)
    append_record(path, record)
    return record


def load_history(path: str | Path) -> list[dict]:
    """All intact, same-or-older-schema records, in file order."""
    path = Path(path)
    if not path.is_file():
        return []
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:  # torn append; skip
                continue
            if not isinstance(record, dict):
                continue
            if record.get("schema", 0) > SCHEMA_VERSION:
                continue
            if not isinstance(record.get("entries"), dict):
                continue
            records.append(record)
    return records


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def compare_latest(
    records: list[dict],
    *,
    window: int = 5,
    threshold: float = 0.25,
    at: int = -1,
) -> dict | None:
    """Compare the record at index *at* against its trailing baseline.

    Returns ``None`` when there is no earlier record to compare against.
    Each metric row carries the latest value, the baseline (median over
    up to *window* prior records that have the metric), the signed
    fractional change toward-worse, the noise-aware allowed fraction,
    and whether it regressed.  Metrics with no baseline are ``new``.
    """
    if at < 0:
        at += len(records)
    if at <= 0 or at >= len(records):
        return None
    latest = records[at]
    prior = records[max(0, at - window):at]
    rows = []
    for name, metric in sorted(latest.get("entries", {}).items()):
        value = float(metric.get("value", 0.0))
        direction = metric.get("direction", LOWER)
        history = [
            float(record["entries"][name]["value"])
            for record in prior
            if name in record.get("entries", {})
        ]
        if not history:
            rows.append(
                {
                    "metric": name,
                    "latest": value,
                    "baseline": None,
                    "change": None,
                    "allowed": None,
                    "direction": direction,
                    "status": "new",
                }
            )
            continue
        base = _median(history)
        # Noise estimate: the second-largest deviation from the median.
        # One outlier in the window (often the very regression we are
        # trying to catch twice in a row) must not widen the allowance,
        # but two deviating runs mean the metric genuinely wobbles.
        deviations = sorted(abs(value_i - base) for value_i in history)
        spread = deviations[-2] if len(deviations) >= 2 else 0.0
        noise = (spread / base) if base > 0 else 0.0
        allowed = max(threshold, 3.0 * noise)
        if base > 0:
            change = (value - base) / base
        else:
            change = 0.0 if value == base else float("inf")
        # Normalize so positive change always means "got worse".
        worse = change if direction == LOWER else -change
        regressed = worse > allowed
        rows.append(
            {
                "metric": name,
                "latest": value,
                "baseline": base,
                "change": worse,
                "allowed": allowed,
                "direction": direction,
                "status": "regressed" if regressed else "ok",
            }
        )
    return {
        "kind": latest.get("kind", "?"),
        "git_sha": latest.get("git_sha"),
        "baseline_runs": len(prior),
        "metrics": rows,
    }


def regressed_names(comparison: dict | None) -> set[str]:
    if comparison is None:
        return set()
    return {
        row["metric"]
        for row in comparison["metrics"]
        if row["status"] == "regressed"
    }


def evaluate(
    history: list[dict],
    *,
    kind: str | None = None,
    window: int = 5,
    threshold: float = 0.25,
) -> list[dict]:
    """Per-kind comparison documents for the latest record of each kind.

    Each document additionally carries ``repeated``: the metric names
    that regressed in *both* of the kind's two most recent records —
    the soft-gate signal.
    """
    kinds: dict[str, list[dict]] = {}
    for record in history:
        kinds.setdefault(str(record.get("kind", "?")), []).append(record)
    results = []
    for record_kind, records in sorted(kinds.items()):
        if kind is not None and record_kind != kind:
            continue
        comparison = compare_latest(
            records, window=window, threshold=threshold
        )
        if comparison is None:
            results.append(
                {
                    "kind": record_kind,
                    "git_sha": records[-1].get("git_sha"),
                    "baseline_runs": 0,
                    "metrics": [],
                    "repeated": [],
                    "note": "not enough history (need >= 2 records)",
                }
            )
            continue
        previous = compare_latest(
            records, window=window, threshold=threshold, at=-2
        )
        comparison["repeated"] = sorted(
            regressed_names(comparison) & regressed_names(previous)
        )
        results.append(comparison)
    return results


def _render(results: list[dict]) -> str:
    lines = []
    for result in results:
        sha = (result.get("git_sha") or "?")[:12]
        lines.append(
            f"{result['kind']} @ {sha} "
            f"(baseline: {result['baseline_runs']} prior run(s))"
        )
        if result.get("note"):
            lines.append(f"  {result['note']}")
            continue
        for row in result["metrics"]:
            if row["status"] == "new":
                lines.append(
                    f"  {row['metric']:<28} {row['latest']:>12.4f}  (new)"
                )
                continue
            arrow = "worse" if row["change"] > 0 else "better"
            flag = "  REGRESSED" if row["status"] == "regressed" else ""
            lines.append(
                f"  {row['metric']:<28} {row['latest']:>12.4f}  "
                f"baseline {row['baseline']:.4f}  "
                f"{abs(row['change']) * 100:5.1f}% {arrow} "
                f"(allowed {row['allowed'] * 100:.0f}%){flag}"
            )
        if result["repeated"]:
            lines.append(
                "  repeated regression: " + ", ".join(result["repeated"])
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-diff",
        description="Detect perf regressions in a benchmark history file.",
    )
    parser.add_argument(
        "history", metavar="HISTORY", help="JSONL history file"
    )
    parser.add_argument(
        "--kind", default=None,
        help="only diff records of this kind (default: every kind present)",
    )
    parser.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="trailing records forming the baseline median (default 5)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="minimum fractional change counted as a regression "
        "(default 0.25; widened automatically for noisy metrics)",
    )
    parser.add_argument(
        "--fail-on", default="repeated",
        choices=("repeated", "any", "never"),
        help="exit 1 on: a metric regressed in the last two runs "
        "(repeated, the CI soft gate), any regression in the latest "
        "run (any), or never (report only)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the comparison as JSON",
    )
    args = parser.parse_args(argv)
    if args.window < 1:
        parser.error("--window must be positive")
    if args.threshold <= 0:
        parser.error("--threshold must be positive")

    history = load_history(args.history)
    if not history:
        print(
            f"repro-bench-diff: {args.history} holds no records",
            file=sys.stderr,
        )
        return 0 if args.fail_on == "never" else 2
    results = evaluate(
        history,
        kind=args.kind,
        window=args.window,
        threshold=args.threshold,
    )
    if not results:
        print(
            f"repro-bench-diff: no {args.kind!r} records in {args.history}",
            file=sys.stderr,
        )
        return 2

    if args.json:
        print(json.dumps({"results": results}, sort_keys=True, indent=1))
    else:
        print(_render(results))

    regressed = sorted(
        {name for result in results for name in regressed_names(result)}
    )
    repeated = sorted(
        {name for result in results for name in result.get("repeated", [])}
    )
    if regressed and not args.json:
        print(
            f"regressed vs baseline: {', '.join(regressed)}",
            file=sys.stderr,
        )
    if args.fail_on == "any" and regressed:
        return 1
    if args.fail_on == "repeated" and repeated:
        print(
            "FAIL: repeated regression (two runs in a row): "
            + ", ".join(repeated),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
