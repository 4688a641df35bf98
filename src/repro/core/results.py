"""Result containers for the limit analyzer."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.models import MachineModel
from repro.core.stats import MispredictionStats
from repro.prediction.stats import BranchStats

#: The analyzer's execution engines (see :mod:`repro.core.analyzer`).
ENGINES = ("fused", "legacy")


def harmonic_mean(values: list[float]) -> float:
    """Harmonic mean, the paper's aggregate over benchmarks."""
    if not values:
        raise ValueError("harmonic mean of no values")
    if any(value <= 0 for value in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / value for value in values)


@dataclass(frozen=True)
class ModelResult:
    """Parallelism of one trace on one machine model.

    ``sequential_time`` counts the instructions that remain after perfect
    inlining/unrolling (removed instructions contribute to neither time, per
    §4.4); ``parallel_time`` is the completion time of the last instruction.
    """

    model: MachineModel
    sequential_time: int
    parallel_time: int

    @property
    def parallelism(self) -> float:
        if self.parallel_time == 0:
            return 1.0  # empty trace: define parallelism as 1
        return self.sequential_time / self.parallel_time

    def to_json(self) -> dict:
        """JSON-serializable form (exact: times are integers)."""
        return {
            "model": self.model.value,
            "sequential_time": self.sequential_time,
            "parallel_time": self.parallel_time,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ModelResult":
        return cls(
            model=MachineModel(payload["model"]),
            sequential_time=payload["sequential_time"],
            parallel_time=payload["parallel_time"],
        )


@dataclass
class AnalysisResult:
    """Results of analyzing one trace under a set of machine models."""

    program_name: str
    trace_length: int
    models: dict[MachineModel, ModelResult] = field(default_factory=dict)
    misprediction_stats: MispredictionStats | None = None
    counted_instructions: int = 0
    removed_instructions: int = 0
    #: Which analyzer implementation produced this result ("fused" or
    #: "legacy").  Provenance only: excluded from equality so differential
    #: tests can compare the two engines' outputs directly.
    engine: str = field(default="fused", compare=False)
    #: Per model, the peak live entries of the branch-retirement ledger of
    #: a flow-limited analysis (empty without ``flow_limit``).
    flow_peaks: dict[MachineModel, int] = field(default_factory=dict)
    #: The branch statistics of the predictor the analysis used, set by
    #: the farm's analyze job.  Provenance of the predictor, not analyzer
    #: output, so excluded from equality like ``engine``.
    branch_stats: BranchStats | None = field(default=None, compare=False)

    @property
    def parallelism(self) -> dict[MachineModel, float]:
        return {model: result.parallelism for model, result in self.models.items()}

    def __getitem__(self, model: MachineModel) -> ModelResult:
        return self.models[model]

    def speedup_over(self, model: MachineModel, baseline: MachineModel) -> float:
        """Ratio of *model*'s parallelism to *baseline*'s."""
        return self.models[model].parallelism / self.models[baseline].parallelism

    def to_json(self) -> dict:
        """JSON-serializable form; round-trips through :meth:`from_json`.

        Every field is integral (parallelism is a derived property), so
        the round trip is exact — a result loaded from the artifact cache
        renders identically to the result that was stored.  Unset
        ``flow_peaks`` and ``branch_stats`` are left out.
        """
        payload = {
            "program_name": self.program_name,
            "trace_length": self.trace_length,
            "counted_instructions": self.counted_instructions,
            "removed_instructions": self.removed_instructions,
            "engine": self.engine,
            "models": [self.models[model].to_json() for model in self.models],
            "misprediction_stats": (
                None
                if self.misprediction_stats is None
                else self.misprediction_stats.to_json()
            ),
        }
        if self.flow_peaks:
            payload["flow_peaks"] = [
                [model.value, peak] for model, peak in self.flow_peaks.items()
            ]
        if self.branch_stats is not None:
            payload["branch_stats"] = asdict(self.branch_stats)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "AnalysisResult":
        result = cls(
            program_name=payload["program_name"],
            trace_length=payload["trace_length"],
            counted_instructions=payload["counted_instructions"],
            removed_instructions=payload["removed_instructions"],
            engine=payload.get("engine", "fused"),
        )
        for entry in payload["models"]:
            model_result = ModelResult.from_json(entry)
            result.models[model_result.model] = model_result
        if payload["misprediction_stats"] is not None:
            result.misprediction_stats = MispredictionStats.from_json(
                payload["misprediction_stats"]
            )
        for label, peak in payload.get("flow_peaks", ()):
            result.flow_peaks[MachineModel(label)] = peak
        if "branch_stats" in payload:
            result.branch_stats = BranchStats(**payload["branch_stats"])
        return result
