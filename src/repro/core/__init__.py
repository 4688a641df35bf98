"""The paper's primary contribution: seven abstract machine models and the
trace-driven parallelism limit analyzer.

:class:`LimitAnalyzer` loads :mod:`repro.core.analyzer` (and the static
analyses it builds on) on first access (PEP 562), so the models and result
types stay cheap to import for code that only reads cached results.
"""

from repro.core.models import ALL_MODELS, NON_SPECULATIVE_MODELS, MachineModel
from repro.core.results import AnalysisResult, ModelResult, harmonic_mean
from repro.core.stats import MispredictionStats, Segment

__all__ = [
    "ALL_MODELS",
    "AnalysisResult",
    "LimitAnalyzer",
    "MachineModel",
    "MispredictionStats",
    "ModelResult",
    "NON_SPECULATIVE_MODELS",
    "Segment",
    "harmonic_mean",
]


def __getattr__(name: str):
    if name == "LimitAnalyzer":
        from repro.core.analyzer import LimitAnalyzer

        return LimitAnalyzer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
