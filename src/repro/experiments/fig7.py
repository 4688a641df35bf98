"""Figure 7 — parallelism within misprediction segments, by distance.

Pooling every SP-machine segment from all benchmarks (the paper combines
"the statistics for all of the programs"), this reports the harmonic mean
of segment parallelism per misprediction-distance bin, together with each
bin's frequency (the paper shades frequent bins darker).  Expected shape:
short segments have little parallelism — their instructions are tightly
data dependent — and parallelism grows with distance, but long distances
are rare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench import SUITE
from repro.core import MispredictionStats
from repro.experiments.runner import SuiteRunner, TextTable

#: Bin upper bounds (instructions).
BINS = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class Fig7:
    rows: list[tuple[int, int, float, int]]  # (low, high, hmean parallelism, count)

    def render(self) -> str:
        table = TextTable(
            headers=["Distance", "HMean parallelism", "Segments", "Share%"],
            title="Figure 7: Segment Parallelism vs. Misprediction Distance (pooled)",
        )
        total = sum(count for *_, count in self.rows) or 1
        for low, high, mean, count in self.rows:
            label = f"{low + 1}-{high}"
            table.add(label, mean, count, 100.0 * count / total)
        return table.render()


def requirements(config) -> list:
    """Farm requests: full analysis with SP segment statistics collected."""
    from repro.jobs import AnalysisRequest

    return [
        AnalysisRequest(name, collect_misprediction_stats=True) for name in SUITE
    ]


def run(runner: SuiteRunner) -> Fig7:
    pooled = MispredictionStats()
    for name in SUITE:
        result = runner.analyze(name, collect_misprediction_stats=True)
        stats = result.misprediction_stats
        assert stats is not None
        pooled.merge(stats)
    return Fig7(rows=pooled.parallelism_by_distance(list(BINS)))
