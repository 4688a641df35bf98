"""Ablation studies beyond the paper (DESIGN.md §5).

* **Predictors** — how the SP-CD-MF limit moves with predictor quality,
  from always-taken up to a perfect oracle (which collapses SP-CD-MF into
  ORACLE, §3's observation in reverse).
* **Scheduling window** — the paper uses an unlimited window; this sweep
  quantifies how much of the SP limit a finite window forfeits.
* **Latency** — the paper's unit latencies "measure all of the
  parallelism"; non-unit latencies consume parallelism to fill pipeline
  bubbles.
* **Inlining** — what perfect inlining (removing call/return/stack-pointer
  serialization) is worth on each machine.
* **Guarded instructions** — the §6 demo of ``repro.bench.programs.guarded``
  compiled with branches and with guarded moves, both analyzed by the farm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench import DEMOS
from repro.core import MachineModel
from repro.experiments.runner import SuiteRunner, TextTable
from repro.isa import OpKind
from repro.jobs import AnalysisRequest
from repro.prediction import PREDICTORS

M = MachineModel

#: Scheduling windows swept by the window ablation, before the unlimited one.
WINDOWS: tuple[int, ...] = (16, 64, 256, 1024, 4096)

#: Operation latencies swept by the latency ablation, by row label.
LATENCIES: tuple[tuple[str, dict[OpKind, int]], ...] = (
    ("unit (paper)", {}),
    ("mem=2", {OpKind.LOAD: 2, OpKind.STORE: 2}),
    ("mem=2,fpu=4", {OpKind.LOAD: 2, OpKind.STORE: 2, OpKind.FPU: 4}),
    ("mem=4,fpu=8,mul-ish", {OpKind.LOAD: 4, OpKind.STORE: 4, OpKind.FPU: 8}),
)

#: Flow counts swept by the flows ablation, before the unlimited one.
FLOW_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)


# -- farm requirements ----------------------------------------------------
#
# One requirements() helper per ablation entry point (the CLI pools the
# requests of every selected experiment and prefetches them through
# repro.jobs).  Each lists exactly the analyses its ablation renders.


def predictor_requirements(config) -> list:
    return [
        AnalysisRequest("espresso", models=(M.SP_CD_MF,), predictor=name)
        for name in PREDICTORS
    ]


def window_requirements(config) -> list:
    return [
        AnalysisRequest("gcc", models=(M.SP,), window=window)
        for window in (*WINDOWS, None)
    ]


def latency_requirements(config) -> list:
    return [
        AnalysisRequest("spice2g6", models=(M.ORACLE, M.SP), latencies=latencies)
        for _label, latencies in LATENCIES
    ]


def inlining_requirements(config) -> list:
    models = (M.BASE, M.SP, M.ORACLE)
    return [
        request
        for name in ("ccom", "eqntott", "latex")
        for request in (
            AnalysisRequest(name, models=models),
            AnalysisRequest(name, models=models, perfect_inlining=False),
        )
    ]


def guarded_requirements(config) -> list:
    return [
        AnalysisRequest(
            name, models=(M.SP, M.SP_CD_MF), collect_misprediction_stats=True
        )
        for name in DEMOS
    ]


def convergence_requirements(config) -> list:
    from repro.bench import NON_NUMERIC

    return [
        AnalysisRequest(name, max_steps=budget)
        for budget in CONVERGENCE_BUDGETS
        for name in NON_NUMERIC
    ]


def flows_requirements(config) -> list:
    return [AnalysisRequest("gcc", models=(M.CD, M.SP_CD))] + [
        AnalysisRequest("gcc", models=(M.CD_MF, M.SP_CD_MF), flow_limit=k)
        for k in (*FLOW_COUNTS, None)
    ]


@dataclass
class ConvergenceAblation:
    """Harmonic-mean parallelism (non-numeric suite) vs. trace budget.

    Quantifies the main scale difference from the paper: BASE/CD/SP are
    limited by *local* constraints and converge almost immediately, while
    the upper-bound machines (SP-CD-MF, ORACLE) keep growing with trace
    length — which is why our absolute ORACLE values sit below the paper's
    100M-instruction numbers.
    """

    rows: list[tuple[int, dict[MachineModel, float]]]

    def render(self) -> str:
        models = (M.BASE, M.CD_MF, M.SP, M.SP_CD_MF, M.ORACLE)
        table = TextTable(
            headers=["Trace budget"] + [m.label for m in models],
            title="Ablation: non-numeric harmonic mean vs. trace length",
        )
        for budget, values in self.rows:
            table.add(budget, *[values[m] for m in models])
        return table.render()


#: Trace budgets swept by the convergence ablation.
CONVERGENCE_BUDGETS: tuple[int, ...] = (50_000, 100_000, 200_000, 400_000)


def convergence_ablation(
    runner: SuiteRunner | None = None,
    budgets: tuple[int, ...] = CONVERGENCE_BUDGETS,
) -> ConvergenceAblation:
    """Re-run the Table 3 harmonic mean at several trace budgets.

    The per-budget runners inherit the parent runner's configuration and
    artifact cache (its throwaway one too), so a prior
    :meth:`SuiteRunner.prefetch` of this ablation's requirements (which is
    how large ``--max-steps`` sweeps become tractable) is reused here
    instead of re-traced.
    """
    from repro.bench import NON_NUMERIC
    from repro.core import ALL_MODELS, harmonic_mean

    if runner is None:
        runner = SuiteRunner()
    rows: list[tuple[int, dict[MachineModel, float]]] = []
    for budget in budgets:
        budget_runner = SuiteRunner(
            replace(runner.config, max_steps=budget, cache_dir=runner.cache_dir)
        )
        per_model: dict[MachineModel, list[float]] = {m: [] for m in ALL_MODELS}
        for name in NON_NUMERIC:
            result = budget_runner.analyze(name)
            for model in ALL_MODELS:
                per_model[model].append(result[model].parallelism)
        rows.append(
            (budget, {m: harmonic_mean(v) for m, v in per_model.items()})
        )
    return ConvergenceAblation(rows=rows)


@dataclass
class PredictorAblation:
    rows: list[tuple[str, float, float]]  # (predictor, prediction rate, SP-CD-MF)
    benchmark: str

    def render(self) -> str:
        table = TextTable(
            headers=["Predictor", "PredRate%", "SP-CD-MF parallelism"],
            title=f"Ablation: branch predictors on {self.benchmark}",
        )
        for row in self.rows:
            table.add(*row)
        return table.render()


def predictor_ablation(runner: SuiteRunner, benchmark: str = "espresso") -> PredictorAblation:
    rows = []
    for name in PREDICTORS:
        result = runner.analyze(benchmark, models=[M.SP_CD_MF], predictor=name)
        rows.append(
            (name, result.branch_stats.prediction_rate, result[M.SP_CD_MF].parallelism)
        )
    return PredictorAblation(rows=rows, benchmark=benchmark)


@dataclass
class WindowAblation:
    rows: list[tuple[str, float]]  # (window label, SP parallelism)
    benchmark: str

    def render(self) -> str:
        table = TextTable(
            headers=["Window", "SP parallelism"],
            title=f"Ablation: scheduling window on {self.benchmark}",
        )
        for row in self.rows:
            table.add(*row)
        return table.render()


def window_ablation(
    runner: SuiteRunner,
    benchmark: str = "gcc",
    windows: tuple[int, ...] = WINDOWS,
) -> WindowAblation:
    rows: list[tuple[str, float]] = []
    for window in (*windows, None):
        result = runner.analyze(benchmark, models=[M.SP], window=window)
        rows.append((str(window or "unlimited"), result[M.SP].parallelism))
    return WindowAblation(rows=rows, benchmark=benchmark)


@dataclass
class LatencyAblation:
    rows: list[tuple[str, float, float]]  # (config, ORACLE, SP)
    benchmark: str

    def render(self) -> str:
        table = TextTable(
            headers=["Latencies", "ORACLE", "SP"],
            title=f"Ablation: operation latencies on {self.benchmark}",
        )
        for row in self.rows:
            table.add(*row)
        return table.render()


def latency_ablation(runner: SuiteRunner, benchmark: str = "spice2g6") -> LatencyAblation:
    rows = []
    for label, latencies in LATENCIES:
        result = runner.analyze(
            benchmark, models=[M.ORACLE, M.SP], latencies=latencies
        )
        rows.append(
            (label, result[M.ORACLE].parallelism, result[M.SP].parallelism)
        )
    return LatencyAblation(rows=rows, benchmark=benchmark)


@dataclass
class FlowsAblation:
    """How many flows of control does it take? (paper §6's closing idea:
    "a small-scale multiprocessor system ... would be an interesting
    possibility").  CD-MF / SP-CD-MF limited to k branch (misprediction)
    retirements per cycle, sweeping k from 1 to unlimited."""

    benchmark: str
    rows: list[tuple[str, float, float]]  # (k, CD-MF(k), SP-CD-MF(k))
    single_flow: tuple[float, float]  # exact CD / SP-CD reference points

    def render(self) -> str:
        table = TextTable(
            headers=["Flows k", "CD-MF(k)", "SP-CD-MF(k)"],
            title=f"Ablation: parallelism vs. flows of control on {self.benchmark}",
        )
        table.add("in-order (CD / SP-CD)", *self.single_flow)
        for row in self.rows:
            table.add(*row)
        return table.render()


def flows_ablation(
    runner: SuiteRunner,
    benchmark: str = "gcc",
    flow_counts: tuple[int, ...] = FLOW_COUNTS,
) -> FlowsAblation:
    reference = runner.analyze(benchmark, models=[M.CD, M.SP_CD])
    rows: list[tuple[str, float, float]] = []
    for k in (*flow_counts, None):
        result = runner.analyze(
            benchmark, models=[M.CD_MF, M.SP_CD_MF], flow_limit=k
        )
        rows.append(
            (
                str(k or "unlimited"),
                result[M.CD_MF].parallelism,
                result[M.SP_CD_MF].parallelism,
            )
        )
    return FlowsAblation(
        benchmark=benchmark,
        rows=rows,
        single_flow=(
            reference[M.CD].parallelism,
            reference[M.SP_CD].parallelism,
        ),
    )


@dataclass
class GuardedAblation:
    """Effect of if-conversion (guarded moves) on the speculative limits —
    the paper's §6 claim that guarded instructions "help increase the
    distance between mispredicted branches"."""

    rows: list[tuple[str, int, float, float, float]]
    # (variant, dynamic branches, mean mispredict distance, SP, SP-CD-MF)

    def render(self) -> str:
        table = TextTable(
            headers=[
                "Variant", "Dyn branches", "Mean mp distance", "SP", "SP-CD-MF",
            ],
            title="Ablation: guarded instructions (if-conversion), paper §6",
        )
        for row in self.rows:
            table.add(*row)
        return table.render()


def guarded_ablation(runner: SuiteRunner) -> GuardedAblation:
    """Compare the demo compiled with branches vs. guarded moves."""
    rows: list[tuple[str, int, float, float, float]] = []
    for name in DEMOS:
        result = runner.analyze(
            name, models=[M.SP, M.SP_CD_MF], collect_misprediction_stats=True
        )
        distances = result.misprediction_stats.distances
        mean_distance = sum(distances) / len(distances) if distances else float("inf")
        rows.append(
            (
                name.removeprefix("demo-"),
                result.branch_stats.conditional_branches,
                mean_distance,
                result[M.SP].parallelism,
                result[M.SP_CD_MF].parallelism,
            )
        )
    return GuardedAblation(rows=rows)


@dataclass
class InliningAblation:
    rows: list[tuple[str, float, float, float]]  # (program, BASE ratio, SP ratio, ORACLE ratio)

    def render(self) -> str:
        table = TextTable(
            headers=["Program", "BASE x", "SP x", "ORACLE x"],
            title="Ablation: speedup of perfect inlining (removing call/return/$sp)",
        )
        for row in self.rows:
            table.add(*row)
        return table.render()


def inlining_ablation(
    runner: SuiteRunner, benchmarks: tuple[str, ...] = ("ccom", "eqntott", "latex")
) -> InliningAblation:
    rows = []
    for name in benchmarks:
        inlined = runner.analyze(name, models=[M.BASE, M.SP, M.ORACLE])
        raw = runner.analyze(
            name, models=[M.BASE, M.SP, M.ORACLE], perfect_inlining=False
        )
        rows.append(
            (
                name,
                inlined[M.BASE].parallelism / raw[M.BASE].parallelism,
                inlined[M.SP].parallelism / raw[M.SP].parallelism,
                inlined[M.ORACLE].parallelism / raw[M.ORACLE].parallelism,
            )
        )
    return InliningAblation(rows=rows)
