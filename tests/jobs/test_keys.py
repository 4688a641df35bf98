"""Tests for content-addressed cache keys (repro.jobs.keys)."""

from repro.core import MachineModel
from repro.isa import OpKind
from repro.jobs import AnalysisRequest, keys


def result_key(trace="tk", models=("BASE",), engine="fused", **options):
    """``keys.result_key`` of one request's option set."""
    request = AnalysisRequest(
        "awk", tuple(MachineModel(label) for label in models), **options
    )
    return keys.result_key(trace, engine, request.options())


class TestKeyStability:
    def test_same_inputs_same_key(self):
        a = keys.trace_key("fp", 1, 10_000)
        b = keys.trace_key("fp", 1, 10_000)
        assert a == b

    def test_keys_are_hex_digests(self):
        key = keys.compile_key("awk", 1, "int main() { return 0; }")
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_kinds_never_collide(self):
        # The same material under different kinds must map to different
        # addresses (a trace can never shadow a result, etc.).
        assert keys.trace_key("x", 1, 1) != result_key("x")


class TestInvalidation:
    def test_program_source_mutation_invalidates_compile_key(self):
        base = keys.compile_key("awk", 1, "int main() { return 0; }")
        mutated = keys.compile_key("awk", 1, "int main() { return 1; }")
        assert base != mutated

    def test_program_fingerprint_invalidates_trace_key(self):
        fp_a = keys.fingerprint_text("addi $t0, $t0, 1")
        fp_b = keys.fingerprint_text("addi $t0, $t0, 2")
        assert keys.trace_key(fp_a, 1, 1000) != keys.trace_key(fp_b, 1, 1000)

    def test_scale_and_budget_in_trace_key(self):
        assert keys.trace_key("fp", 1, 1000) != keys.trace_key("fp", 2, 1000)
        assert keys.trace_key("fp", 1, 1000) != keys.trace_key("fp", 1, 2000)

    def test_repro_version_in_every_key(self, monkeypatch):
        before = (
            keys.compile_key("awk", 1, "src"),
            keys.trace_key("fp", 1, 1000),
            result_key(),
        )
        monkeypatch.setattr(keys, "__version__", "999.0.0")
        after = (
            keys.compile_key("awk", 1, "src"),
            keys.trace_key("fp", 1, 1000),
            result_key(),
        )
        for old, new in zip(before, after):
            assert old != new

    def test_rtrc_version_in_trace_key(self, monkeypatch):
        before = keys.trace_key("fp", 1, 1000)
        monkeypatch.setattr(keys, "RTRC_VERSION", 999)
        assert keys.trace_key("fp", 1, 1000) != before

    def test_schema_in_keys(self, monkeypatch):
        before = result_key()
        monkeypatch.setattr(keys, "SCHEMA", 999)
        assert result_key() != before


class TestResultKey:
    def test_model_order_is_canonical(self):
        a = result_key(models=("CD", "SP-CD"))
        b = result_key(models=("SP-CD", "CD"))
        assert a == b

    def test_option_sets_distinct(self):
        base = result_key()
        assert result_key(perfect_unrolling=False) != base
        assert result_key(perfect_inlining=False) != base
        assert result_key(collect_misprediction_stats=True) != base
        assert result_key(window=64) != base
        assert result_key(latencies={OpKind.LOAD: 2}) != base
        assert result_key(flow_limit=2) != base
        assert result_key(predictor="gshare") != base
        assert result_key(engine="legacy") != base
        assert result_key("other") != base

    def test_latency_order_is_canonical(self):
        a = result_key(latencies={OpKind.LOAD: 2, OpKind.FPU: 4})
        b = result_key(latencies={OpKind.FPU: 4, OpKind.LOAD: 2})
        assert a == b
        assert result_key(latencies={}) == result_key()


class TestEndToEndInvalidation:
    def test_mutating_benchmark_source_changes_trace_address(self, tmp_path):
        """A source edit must invalidate every downstream artifact key."""
        from repro.jobs import ArtifactCache, FarmReport, Planner
        from repro.lang import compile_source
        from repro.asm.disassembler import disassemble

        program_a = compile_source(
            "int main() { return 2; }", name="mut"
        )
        program_b = compile_source(
            "int main() { return 3; }", name="mut"
        )
        fp_a = keys.fingerprint_text(disassemble(program_a))
        fp_b = keys.fingerprint_text(disassemble(program_b))
        assert fp_a != fp_b
        assert keys.trace_key(fp_a, 1, 100) != keys.trace_key(fp_b, 1, 100)
