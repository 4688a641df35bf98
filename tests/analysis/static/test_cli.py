"""Tests for the static report and ``repro-lint --report``."""

import pytest

from repro.analysis.static import analyze_static
from repro.analysis.static.report import render_report
from repro.asm import assemble
from repro.lang import compile_source
from repro.lint_cli import main as lint_main


def main(argv):
    return lint_main([*argv, "--report", "--fail-on", "never"])

SOURCE = """
int main() {
    int total = 0;
    for (int i = 0; i < 4; i++) total += i;
    return total;
}
"""

ASSEMBLY = """
.text
.func main
main:
li $t0, 3
li $t1, 4
add $v0, $t0, $t1
halt
.endfunc
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRenderReport:
    def test_byte_identical_across_runs(self):
        program = compile_source(SOURCE, name="prog")
        first = render_report(analyze_static(program))
        second = render_report(analyze_static(program))
        assert first == second

    def test_report_structure(self):
        program = compile_source(SOURCE, name="prog")
        report = render_report(analyze_static(program))
        assert "static analysis: prog" in report
        assert "function" in report
        assert "guaranteed critical path:" in report
        assert "static bound:" in report
        assert "main" in report

    def test_unreachable_function_is_marked(self):
        source = """
__start:
    halt
.func orphan
orphan:
    jr $ra
.endfunc
"""
        report = render_report(analyze_static(assemble(source)))
        assert "orphan (unreachable)" in report


class TestMain:
    def test_minic_file(self, tmp_path, capsys):
        path = write(tmp_path, "prog.c", SOURCE)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert f"static analysis: {path}" in out
        # The report comes first, then lint's own summary line.
        assert out.index("static bound:") < out.index("1 program(s) checked")

    def test_assembly_file(self, tmp_path, capsys):
        path = write(tmp_path, "prog.s", ASSEMBLY)
        assert main([path]) == 0
        assert f"static analysis: {path}" in capsys.readouterr().out

    def test_bench_selection(self, capsys):
        assert main(["--bench", "awk"]) == 0
        assert "static analysis: bench:awk" in capsys.readouterr().out

    def test_bench_output_deterministic(self, capsys):
        assert main(["--bench", "awk"]) == 0
        first = capsys.readouterr().out
        assert main(["--bench", "awk"]) == 0
        assert capsys.readouterr().out == first

    def test_report_matches_render_report(self, capsys):
        from repro.bench import SUITE

        spec = SUITE["awk"]
        program = compile_source(
            spec.source(spec.default_scale), name="bench:awk"
        )
        assert main(["--bench", "awk"]) == 0
        assert capsys.readouterr().out.startswith(
            render_report(analyze_static(program)) + "\n\n"
        )

    def test_report_keeps_the_exit_status(self, tmp_path, capsys):
        uninit = write(tmp_path, "uninit.c", "int main() { int x; return x; }")
        assert lint_main([uninit, "--report"]) == 1
        out = capsys.readouterr().out
        assert "static analysis:" in out and "MC101" in out

    def test_unknown_bench_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bench", "no-such-benchmark"])
        assert exc.value.code == 2

    def test_nothing_to_analyze_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_broken_source_has_no_report(self, tmp_path, capsys):
        broken = write(tmp_path, "broken.c", "int main( {")
        assert lint_main([broken, "--report"]) == 1
        out = capsys.readouterr().out
        assert "MC100" in out
        assert "static analysis:" not in out

    def test_json_format_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--bench", "awk", "--format", "json"])
        assert exc.value.code == 2
        assert "--report" in capsys.readouterr().err
