"""Integration tests for the repro-lint command line driver."""

import pytest

from repro.lint_cli import main

CLEAN = """
int main() {
    int total = 0;
    for (int i = 0; i < 4; i++) total += i;
    return total;
}
"""

UNINIT = """
int main() {
    int x;
    return x;
}
"""

BROKEN = "int main( {"

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


def test_clean_program_exits_zero(tmp_path, capsys):
    assert main([write(tmp_path, "clean.c", CLEAN)]) == 0
    out = capsys.readouterr().out
    assert "1 program(s) checked, 0 error(s), 0 warning(s)" in out


def test_uninitialized_read_fails_by_default(tmp_path, capsys):
    path = write(tmp_path, "uninit.c", UNINIT)
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "MC101" in out
    assert "uninit.c" in out


def test_fail_on_never_reports_but_exits_zero(tmp_path, capsys):
    assert main([write(tmp_path, "uninit.c", UNINIT), "--fail-on", "never"]) == 0
    assert "MC101" in capsys.readouterr().out


def test_compile_error_is_mc100(tmp_path, capsys):
    assert main([write(tmp_path, "broken.c", BROKEN)]) == 1
    assert "MC100" in capsys.readouterr().out


def test_assembly_file_is_verified(tmp_path, capsys):
    assert main([write(tmp_path, "prog.s", ASSEMBLY)]) == 0
    assert "1 program(s) checked" in capsys.readouterr().out


def test_trace_mode_on_source_file(tmp_path, capsys):
    path = write(tmp_path, "clean.c", CLEAN)
    assert main([path, "--trace", "--max-steps", "5000"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_bench_selection(capsys):
    assert main(["--bench", "eqntott", "--trace", "--max-steps", "5000"]) == 0
    assert "1 program(s) checked" in capsys.readouterr().out


def test_unknown_bench_errors():
    with pytest.raises(SystemExit):
        main(["--bench", "no-such-benchmark"])


class TestInputErrorsExit2:
    """Bad inputs are usage errors (2), never "diagnostics found" (1)."""

    def exit_status(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr().err

    def test_unknown_bench(self, capsys):
        code, err = self.exit_status(["--bench", "nope"], capsys)
        assert code == 2
        assert "unknown benchmark(s): nope" in err

    def test_missing_examples_directory(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        code, err = self.exit_status(["--examples", str(missing)], capsys)
        assert code == 2
        assert str(missing) in err

    def test_unparsable_example(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text(f"PROGRAM = {CLEAN!r}\n")
        bad = write(tmp_path, "bad.py", "def broken(:\n")
        code, err = self.exit_status(["--examples", str(tmp_path)], capsys)
        assert code == 2
        assert bad in err


STATIC_NOTES_ASM = """
.text
.func main
main:
li $t0, 5
li $t1, 5
beq $t0, $t1, out
li $v0, 99
out:
halt
.endfunc
"""


class TestJsonFormat:
    def test_stable_schema(self, tmp_path, capsys):
        import json

        path = write(tmp_path, "uninit.c", UNINIT)
        assert main([path, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"diagnostics", "checked", "summary", "exit"}
        assert doc["checked"] == 1
        assert doc["exit"] == 1
        assert doc["summary"]["warning"] >= 1
        for d in doc["diagnostics"]:
            assert set(d) == {
                "code", "severity", "message", "source",
                "line", "col", "pc", "function",
            }

    def test_exit_field_matches_status(self, tmp_path, capsys):
        import json

        path = write(tmp_path, "uninit.c", UNINIT)
        assert main([path, "--format", "json", "--fail-on", "never"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit"] == 0

    def test_diagnostics_sorted(self, tmp_path, capsys):
        import json

        path = write(tmp_path, "prog.s", STATIC_NOTES_ASM)
        assert main([path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = [
            (d["source"], d["line"] or -1, d["col"] or -1,
             d["pc"] if d["pc"] is not None else -1, d["code"])
            for d in doc["diagnostics"]
        ]
        assert keys == sorted(keys)


class TestStaticPassesWired:
    def test_assembly_gets_static_notes(self, tmp_path, capsys):
        path = write(tmp_path, "prog.s", STATIC_NOTES_ASM)
        assert main([path]) == 0  # notes do not fail the default gate
        out = capsys.readouterr().out
        assert "STA403" in out  # const-decided branch
        assert "STA404" in out  # unreachable fallthrough

    def test_trace_runs_the_differential_gate(self, tmp_path, capsys):
        import json

        path = write(tmp_path, "prog.s", STATIC_NOTES_ASM)
        assert main([path, "--trace", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # The gate ran and reported nothing: no STA41x in a clean program.
        assert doc["summary"]["error"] == 0
        codes = {d["code"] for d in doc["diagnostics"]}
        assert "STA403" in codes
        assert not any(c.startswith("STA41") for c in codes)

    def test_exit_codes_documented_contract(self, tmp_path):
        # 0: clean; 1: at/above threshold; 2: usage errors.
        assert main([write(tmp_path, "clean.c", CLEAN)]) == 0
        assert main([write(tmp_path, "uninit.c", UNINIT)]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["--no-such-flag"])
        assert exc.value.code == 2
