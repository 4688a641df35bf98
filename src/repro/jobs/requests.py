"""Declarative descriptions of the artifacts an experiment needs.

Each experiment module exposes ``requirements(config)`` returning a list
of these requests; the CLI pools the requests of every selected
experiment and hands them to the engine, which expands them into a
deduplicated :class:`~repro.jobs.engine.JobGraph` of compile → trace →
analysis jobs (the trace job also stores the run's branch profile).

Fields left at ``None`` inherit from the session's
:class:`~repro.experiments.runner.RunConfig` (workload scale, trace
budget), so the same request list adapts to ``--max-steps`` / ``--scale``.

Requests describe *what* must exist, never *how* reliably it is
produced: retry budgets, timeouts, and fault injection are run-level
policy (:class:`~repro.jobs.retry.RetryPolicy`,
:mod:`repro.jobs.faults`) applied by the execution engine, so the same
request list behaves identically under a chaotic run and a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.models import ALL_MODELS, MachineModel
from repro.prediction import PREDICTORS


@dataclass(frozen=True)
class TraceRequest:
    """Request the trace of one benchmark and the branch profile its
    run counted (which alone gives the benchmark's Table 2 row)."""

    benchmark: str
    max_steps: int | None = None  # None: RunConfig.max_steps


@dataclass(frozen=True)
class AnalysisRequest:
    """Request one benchmark analyzed under one analyzer option set.

    Implies the benchmark's trace.  ``models`` is ``None`` for the full
    model set (the default of ``SuiteRunner.analyze``).  The option
    fields mirror ``LimitAnalyzer.analyze``, except that ``latencies`` is
    a sorted tuple of ``(OpKind.value, cycles)`` pairs (an ``OpKind ->
    cycles`` mapping is converted) and ``predictor`` is a predictor name
    from :data:`~repro.prediction.PREDICTORS`.
    """

    benchmark: str
    models: tuple[MachineModel, ...] | None = None
    perfect_unrolling: bool = True
    perfect_inlining: bool = True
    collect_misprediction_stats: bool = False
    window: int | None = None
    latencies: tuple[tuple[str, int], ...] = ()
    flow_limit: int | None = None
    predictor: str = "profile"
    max_steps: int | None = None  # None: RunConfig.max_steps

    def __post_init__(self):
        if isinstance(self.latencies, dict):
            pairs = sorted((k.value, cycles) for k, cycles in self.latencies.items())
            object.__setattr__(self, "latencies", tuple(pairs))

    @property
    def model_labels(self) -> tuple[str, ...]:
        models = ALL_MODELS if self.models is None else self.models
        return tuple(model.label for model in models)

    def options(self) -> dict:
        """The analyzer option set, keyed as ``LimitAnalyzer.analyze``'s
        parameters, with models as labels: the one definition the result
        key, the job payload and the analyze job all read.

        Raises ``ValueError`` for an unknown predictor name, so a bad
        request fails when it is planned rather than as a dead job.
        """
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"expected one of {', '.join(PREDICTORS)}"
            )
        options = {
            field.name: getattr(self, field.name)
            for field in fields(self)
            if field.name not in ("benchmark", "max_steps")
        }
        options["models"] = self.model_labels
        return options


Request = TraceRequest | AnalysisRequest
