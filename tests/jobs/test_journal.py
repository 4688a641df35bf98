"""Tests for RunJournal lifetime guarantees (repro.jobs.engine).

The resume semantics themselves live in test_resume.py; this file pins
the *lifetime* contract: a journal is a context manager, and the engine
closes it even when graph execution raises — a process that executes
many graphs must never leak journal handles.
"""

import pytest

from repro.jobs import (
    AnalysisRequest,
    ArtifactCache,
    ExecutionEngine,
    FarmReport,
    Job,
    JobGraph,
    Planner,
    RunJournal,
)
from repro.jobs import engine as engine_module

MAX_STEPS = 4_000


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def plan(cache, report, requests, max_steps=MAX_STEPS):
    return Planner(cache, report).plan(requests, None, max_steps)


def cyclic_graph() -> JobGraph:
    graph = JobGraph()
    graph.add(Job(key="a", stage="trace", benchmark="x", payload={}, deps=("b",)))
    graph.add(Job(key="b", stage="trace", benchmark="x", payload={}, deps=("a",)))
    return graph


class TestContextManager:
    def test_enter_returns_journal_and_exit_closes(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        with RunJournal(cache.root / "journal", graph) as journal:
            journal.append(next(iter(graph)), 0.1)
            assert journal._handle is not None
        assert journal._handle is None

    def test_exit_closes_on_exception(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        with pytest.raises(RuntimeError, match="boom"):
            with RunJournal(cache.root / "journal", graph) as journal:
                journal.append(next(iter(graph)), 0.1)
                raise RuntimeError("boom")
        assert journal._handle is None
        # The append before the crash was durably flushed.
        assert RunJournal(cache.root / "journal", graph).load()

    def test_exit_without_appends_is_harmless(self, cache):
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        with RunJournal(cache.root / "journal", graph) as journal:
            pass
        assert journal._handle is None
        assert not journal.path.exists()


class TestEngineClosesJournal:
    def test_execute_closes_journal_when_graph_raises(self, cache, monkeypatch):
        opened = []
        real_journal = engine_module.RunJournal

        class SpyJournal(real_journal):
            def __init__(self, directory, graph):
                super().__init__(directory, graph)
                opened.append(self)

        monkeypatch.setattr(engine_module, "RunJournal", SpyJournal)
        engine = ExecutionEngine(cache)
        with pytest.raises(RuntimeError, match="cycle"):
            engine.execute(cyclic_graph(), FarmReport())
        assert len(opened) == 1
        assert opened[0]._handle is None  # closed despite the raise

    def test_execute_closes_journal_on_success(self, cache, monkeypatch):
        opened = []
        real_journal = engine_module.RunJournal

        class SpyJournal(real_journal):
            def __init__(self, directory, graph):
                super().__init__(directory, graph)
                opened.append(self)

        monkeypatch.setattr(engine_module, "RunJournal", SpyJournal)
        graph = plan(cache, FarmReport(), [AnalysisRequest("awk")])
        ExecutionEngine(cache).execute(graph, FarmReport())
        assert len(opened) == 1
        assert opened[0]._handle is None
