"""Profile-based static branch prediction (the paper's predictor).

§4.4.2: *"Our simulations of speculative execution use static branch
predictions based on profile information.  These statistics were collected
from running the benchmarks with the same inputs used in the simulations.
Our prediction rates are therefore an upper bound for static branch
prediction techniques."*

:class:`ProfilePredictor` predicts each static conditional branch in its
majority direction observed during a profiling run.  Training on the same
input that is later analyzed reproduces the paper's upper-bound setup.
"""

from __future__ import annotations

from repro import telemetry
from repro.prediction.base import BranchPredictor
from repro.prediction.stats import BranchStats
from repro.vm.machine import RunResult
from repro.vm.trace import Trace


class ProfilePredictor(BranchPredictor):
    """Static majority-direction predictor trained from profile counts.

    It keeps the ``pc -> [not_taken, taken]`` counts it was trained on
    and the number of records they were counted over, so Table 2's
    statistics for the training run (:meth:`stats`) need no further pass
    over the trace.
    """

    name = "profile"

    def __init__(
        self,
        counts: dict[int, list[int]],
        records: int,
        default_taken: bool = True,
    ):
        self._counts = {pc: list(pair) for pc, pair in counts.items()}
        self._records = records
        self._default = default_taken
        # A tie predicts taken.
        self._directions = {
            pc: taken >= not_taken
            for pc, (not_taken, taken) in self._counts.items()
        }

    @classmethod
    def from_counts(
        cls,
        counts: dict[int, list[int]],
        records: int,
        default_taken: bool = True,
    ) -> "ProfilePredictor":
        """Build from ``pc -> [not_taken_count, taken_count]`` profile data
        (the shape produced by :class:`repro.vm.VM`) counted over
        *records* dynamic instructions."""
        return cls(counts, records, default_taken=default_taken)

    @classmethod
    def from_run(cls, result: RunResult, default_taken: bool = True) -> "ProfilePredictor":
        """Build from a VM run's branch profile."""
        return cls.from_counts(
            result.branch_profile, result.steps, default_taken=default_taken
        )

    @classmethod
    def from_trace(cls, trace: Trace, default_taken: bool = True) -> "ProfilePredictor":
        """Build by profiling an existing trace (same-input upper bound)."""
        return cls.from_source(trace, default_taken=default_taken)

    @classmethod
    def from_source(cls, source, default_taken: bool = True) -> "ProfilePredictor":
        """Build by profiling a trace source chunk by chunk.

        *source* is a :class:`Trace` or a streaming
        :class:`~repro.vm.trace_io.TraceReader`; either way the profile
        is accumulated one chunk at a time, so a 100M-record on-disk
        trace never materializes in memory.
        """
        from repro.vm.trace_io import iter_trace_chunks, trace_source_program

        program = trace_source_program(source)
        with telemetry.span("prediction.profile", program=program.name) as sp:
            counts: dict[int, list[int]] = {}
            records = 0
            branches = 0
            for pcs, _addrs, takens in iter_trace_chunks(source):
                records += len(pcs)
                for pc, taken in zip(pcs, takens):
                    if taken < 0:  # NOT_BRANCH
                        continue
                    entry = counts.setdefault(pc, [0, 0])
                    entry[taken] += 1
                    branches += 1
            sp.set(branches=branches, static_sites=len(counts))
        if telemetry.enabled():
            telemetry.METRICS.counter("repro_profile_branches_total").inc(
                branches, program=program.name
            )
        return cls.from_counts(counts, records, default_taken=default_taken)

    def lookup(self, pc: int) -> bool:
        return self._directions.get(pc, self._default)

    @property
    def default_taken(self) -> bool:
        """Direction predicted for branches never seen during profiling."""
        return self._default

    @property
    def records(self) -> int:
        """Dynamic instructions the counts were collected over."""
        return self._records

    def counts(self) -> dict[int, list[int]]:
        """A copy of the per-branch ``[not_taken, taken]`` counts."""
        return {pc: list(pair) for pc, pair in self._counts.items()}

    def direction_map(self) -> dict[int, bool]:
        """A copy of the per-branch predicted directions."""
        return dict(self._directions)

    def stats(self) -> BranchStats:
        """Table 2's statistics for the run this profile was trained on.

        Equal to ``branch_stats(trace, self)`` over the training trace:
        every branch is predicted in its majority direction, so it is
        mispredicted exactly its minority count of times.
        """
        return BranchStats(
            dynamic_instructions=self._records,
            conditional_branches=sum(nt + t for nt, t in self._counts.values()),
            mispredictions=sum(min(nt, t) for nt, t in self._counts.values()),
        )
