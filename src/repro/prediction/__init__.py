"""Branch prediction: the paper's profile-based static predictor plus
static and dynamic baselines used in ablation experiments."""

from repro.prediction.base import BranchPredictor, misprediction_flags
from repro.prediction.dynamic import GShare, OneBit, TwoBit
from repro.prediction.profile import ProfilePredictor
from repro.prediction.static import (
    AlwaysNotTaken,
    AlwaysTaken,
    BackwardTaken,
    PerfectPredictor,
)
from repro.prediction.stats import BranchStats, branch_stats
from repro.vm.trace import NOT_BRANCH

__all__ = [
    "AlwaysNotTaken",
    "AlwaysTaken",
    "BackwardTaken",
    "BranchPredictor",
    "BranchStats",
    "GShare",
    "OneBit",
    "PREDICTORS",
    "PerfectPredictor",
    "ProfilePredictor",
    "TwoBit",
    "branch_stats",
    "misprediction_flags",
    "named_predictor",
]

_NAMED = (
    AlwaysTaken,
    AlwaysNotTaken,
    BackwardTaken,
    OneBit,
    TwoBit,
    GShare,
    ProfilePredictor,
    PerfectPredictor,
)

#: The predictors an analysis request can name, by their ``name``.
PREDICTORS = tuple(cls.name for cls in _NAMED)


def named_predictor(
    name: str, source, profile: ProfilePredictor
) -> BranchPredictor:
    """The predictor called *name*, set up to predict the trace *source*.

    ``profile`` is the run's own profile predictor; ``btfnt`` reads the
    source's program and ``perfect`` is primed with its outcomes.
    """
    from repro.vm.trace_io import iter_trace_chunks, trace_source_program

    if name == "profile":
        return profile
    if name == "btfnt":
        return BackwardTaken(trace_source_program(source))
    if name == "perfect":
        perfect = PerfectPredictor()
        perfect.prime(
            [
                taken == 1
                for _pcs, _addrs, takens in iter_trace_chunks(source)
                for taken in takens
                if taken != NOT_BRANCH
            ]
        )
        return perfect
    return {cls.name: cls for cls in _NAMED}[name]()
