"""EXPERIMENTS.md quotes its tables from the archived 10M report.

Every fenced table in EXPERIMENTS.md whose header row is a line of
``results/experiments_10m.txt`` is a quote of that report, and must equal
the report's block row for row (dashed separator lines aside), so the
prose cannot drift from the numbers it discusses.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "EXPERIMENTS.md"
REPORT = ROOT / "results" / "experiments_10m.txt"

FENCE = re.compile(r"^( *)```(\w*)\n(.*?)^\1```", re.MULTILINE | re.DOTALL)


def _rows(lines):
    return [line.rstrip() for line in lines if line.strip().strip("-")]


def quoted_tables():
    """``(doc rows, report rows)`` for every table the document quotes."""
    report = _rows(REPORT.read_text(encoding="utf-8").splitlines())
    pairs = []
    for indent, language, body in FENCE.findall(DOC.read_text(encoding="utf-8")):
        if language:
            continue
        rows = _rows(line[len(indent):] for line in body.splitlines())
        if rows and rows[0] in report:
            start = report.index(rows[0])
            pairs.append((rows, report[start : start + len(rows)]))
    return pairs


def test_quoted_tables_equal_the_10m_report():
    pairs = quoted_tables()
    # Tables 2-4, Figures 5-7 and the flows-of-control ablation.
    assert len(pairs) >= 7
    for quoted, archived in pairs:
        assert quoted == archived, quoted[0]
