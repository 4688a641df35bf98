"""Table 2 — branch statistics.

For each benchmark: the profile predictor's conditional-branch prediction
rate and the average number of dynamic instructions between conditional
branches, side by side with the paper's published values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench import SUITE
from repro.experiments.paper_data import PAPER_TABLE2
from repro.experiments.runner import SuiteRunner, TextTable


@dataclass
class Table2Row:
    program: str
    prediction_rate: float
    instructions_between_branches: float
    paper_prediction_rate: float
    paper_instructions_between_branches: float


@dataclass
class Table2:
    rows: list[Table2Row]

    def render(self) -> str:
        table = TextTable(
            headers=[
                "Program", "PredRate%", "(paper)", "Instr/Branch", "(paper)",
            ],
            title="Table 2: Branch Statistics (measured vs. paper)",
        )
        for row in self.rows:
            table.add(
                row.program,
                row.prediction_rate,
                row.paper_prediction_rate,
                row.instructions_between_branches,
                row.paper_instructions_between_branches,
            )
        return table.render()


def requirements(config) -> list:
    """Farm requests: every benchmark's trace job, whose stored branch
    profile holds the counts Table 2 is computed from."""
    from repro.jobs import TraceRequest

    return [TraceRequest(name) for name in SUITE]


def run(runner: SuiteRunner) -> Table2:
    rows = []
    for name in SUITE:
        stats = runner.run(name).stats
        paper_rate, paper_between = PAPER_TABLE2[name]
        rows.append(
            Table2Row(
                program=name,
                prediction_rate=stats.prediction_rate,
                instructions_between_branches=stats.instructions_between_branches,
                paper_prediction_rate=paper_rate,
                paper_instructions_between_branches=paper_between,
            )
        )
    return Table2(rows)
