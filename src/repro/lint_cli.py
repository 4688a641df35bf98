"""``repro-lint`` — run the diagnostics passes from the command line.

Usage::

    repro-lint prog.c other.s            # lint files (MiniC or assembly)
    repro-lint --bench all               # lint + verify every benchmark
    repro-lint --bench eqntott --trace   # also sanitize a dynamic trace
    repro-lint --examples examples       # lint sources embedded in examples
    repro-lint --fail-on error ...       # only errors affect the exit code
    repro-lint --format json ...         # machine-readable output
    repro-lint --bench all --report      # also print each static report

Files ending in ``.s``/``.asm`` are assembled and run through the
object-code verifier (``OBJ2xx``) and the whole-program static engine
(``STA40x`` notes); everything else is treated as MiniC and additionally
linted (``MC1xx``).  ``--trace`` executes each successfully compiled
program, replays the trace against the static analysis (``TR3xx``), and
runs the static-vs-dynamic differential gate (``STA41x``).

``--examples`` extracts module-level string constants from example
scripts: constants containing ``int main`` are linted as MiniC, constants
that look like assembly (``.text`` / ``.func`` directives) are assembled
and verified.  This keeps every program the documentation ships under the
same gate as the benchmark suite.

``--report`` prints the static engine's whole-program report
(:mod:`repro.analysis.static.report`) for each program that compiled,
from the facts the ``STA40x`` pass already computed, ahead of the
diagnostics.

Exit status (documented contract, see ``docs/diagnostics.md``): 0 when no
diagnostic at or above the ``--fail-on`` severity (default: warning) was
reported, 1 when at least one was, 2 on usage or input errors (argparse):
an unreadable FILE, an unknown ``--bench`` name, a missing ``--examples``
directory or an example file that does not parse.
``--format json`` emits one JSON object on stdout with the stable fields
``diagnostics`` (list of :meth:`~repro.diagnostics.Diagnostic.to_json`
objects, sorted), ``checked``, ``summary`` (counts per severity label),
and ``exit`` (the status the process then exits with).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

from repro.analysis import verify_program
from repro.asm import AsmError, assemble
from repro.diagnostics import Diagnostic, Severity, render_all, sort_diagnostics
from repro.lang import CompileError, compile_source, lint_minic


def _front_end(kind: str, text: str, name: str):
    """Assemble (``kind == "asm"``) or lint and compile one program.

    Returns the front-end and object-code verifier diagnostics, plus the
    program, or None when it did not assemble or compile.
    """
    diagnostics = [] if kind == "asm" else lint_minic(text, name=name)
    if any(d.code == "MC100" for d in diagnostics):
        return diagnostics, None  # did not compile; nothing further to check
    build = assemble if kind == "asm" else compile_source
    try:
        program = build(text, name=name)
    except (CompileError, AsmError) as exc:
        # For MiniC, the front end accepted the program but codegen or
        # assembly failed.
        code = "OBJ200" if isinstance(exc, AsmError) else "MC100"
        diagnostics.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=exc.message,
                source=name,
                line=exc.line,
            )
        )
        return diagnostics, None
    return diagnostics + verify_program(program, name=name), program


def _static_passes(
    program, facts, name: str, trace: bool, max_steps: int
) -> list[Diagnostic]:
    """The whole-program static engine's notes (``STA40x``) from *facts*,
    plus — with *trace* — the trace sanitizer (``TR3xx``) and the
    static-vs-dynamic differential gate (``STA41x``) over one execution
    of the program."""
    from repro.analysis.static.lint import lint_static

    diagnostics = lint_static(program, name=name, facts=facts)
    if not trace:
        return diagnostics

    from repro.analysis.static.differential import check_static_vs_dynamic
    from repro.core.analyzer import LimitAnalyzer
    from repro.core.models import MachineModel
    from repro.vm import VM, sanitize_trace

    run = VM(program).run(max_steps=max_steps)
    diagnostics += sanitize_trace(run.trace, analysis=facts.analysis, name=name)
    result = LimitAnalyzer(program, facts.analysis).analyze(
        run.trace, models=[MachineModel.ORACLE]
    )
    diagnostics += check_static_vs_dynamic(
        facts, run.trace, result=result, halted=run.halted, name=name
    )
    return diagnostics


def _looks_like_minic(text: str) -> bool:
    return "int main" in text and "{" in text


def _looks_like_assembly(text: str) -> bool:
    return any(
        directive in text for directive in (".text", ".func", ".data")
    )


def _example_sources(path: Path) -> list[tuple[str, str, str]]:
    """(label, kind, text) for each embedded program in a ``.py`` file.

    Raises :class:`SyntaxError` when the file does not parse.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[str, str, str]] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Constant):
            continue
        if not isinstance(node.value.value, str):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if not targets:
            continue
        text = node.value.value
        label = f"{path}:{targets[0]}"
        if _looks_like_minic(text):
            found.append((label, "minic", text))
        elif _looks_like_assembly(text):
            found.append((label, "asm", text))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static verifier for MiniC sources, object code, and "
        "dynamic traces.",
    )
    parser.add_argument("paths", nargs="*", metavar="FILE",
                        help="MiniC or assembly files to check")
    parser.add_argument(
        "--bench",
        nargs="+",
        metavar="NAME",
        default=[],
        help="benchmark(s) to lint and verify, or 'all'",
    )
    parser.add_argument(
        "--examples",
        metavar="DIR",
        help="lint program sources embedded in the .py files of DIR",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also execute each program and sanitize its trace",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=50_000,
        help="trace budget per program with --trace (default 50000)",
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "never"],
        default="warning",
        help="minimum severity that makes the exit status 1 "
        "(default: warning)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="also print the static engine's whole-program report for "
        "each checked program (text format only)",
    )
    args = parser.parse_args(argv)

    if not args.paths and not args.bench and not args.examples:
        parser.error("nothing to lint: pass FILEs, --bench, or --examples")
    if args.report and args.format == "json":
        parser.error("--report renders text; it cannot be combined with "
                     "--format json")

    # (label, kind, text) per program; every input error exits 2 here,
    # before any program is checked.
    targets: list[tuple[str, str, str]] = []
    for path in args.paths:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            parser.error(f"cannot read {path}: {exc.strerror or exc}")
        kind = "asm" if path.endswith((".s", ".asm")) else "minic"
        targets.append((path, kind, text))
    if args.bench:
        from repro.bench import SUITE

        names = sorted(SUITE) if args.bench == ["all"] else args.bench
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            parser.error(
                f"unknown benchmark(s): {', '.join(unknown)} "
                f"(choices: {', '.join(sorted(SUITE))})"
            )
        for name in names:
            spec = SUITE[name]
            targets.append(
                (f"bench:{name}", "minic", spec.source(spec.default_scale))
            )
    if args.examples:
        examples = Path(args.examples)
        if not examples.is_dir():
            parser.error(f"--examples: no such directory: {examples}")
        for path in sorted(examples.glob("*.py")):
            try:
                targets += _example_sources(path)
            except SyntaxError as exc:
                parser.error(
                    f"--examples: cannot parse {path}: {exc.msg} "
                    f"(line {exc.lineno})"
                )

    from repro.analysis.static import analyze_static
    from repro.analysis.static.report import render_report

    diagnostics: list[Diagnostic] = []
    reports: list[str] = []
    for label, kind, text in targets:
        found, program = _front_end(kind, text, label)
        diagnostics += found
        if program is None:
            continue
        facts = analyze_static(program)
        diagnostics += _static_passes(
            program, facts, label, args.trace, args.max_steps
        )
        if args.report:
            reports.append(render_report(facts))
    checked = len(targets)

    diagnostics = sort_diagnostics(diagnostics)
    errors = sum(1 for d in diagnostics if d.severity >= Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity == Severity.WARNING)
    notes = sum(1 for d in diagnostics if d.severity == Severity.NOTE)

    threshold = {
        "error": Severity.ERROR,
        "warning": Severity.WARNING,
        "never": None,
    }[args.fail_on]
    exit_code = (
        1
        if threshold is not None
        and any(d.severity >= threshold for d in diagnostics)
        else 0
    )

    if args.format == "json":
        print(
            json.dumps(
                {
                    "diagnostics": [d.to_json() for d in diagnostics],
                    "checked": checked,
                    "summary": {
                        "error": errors,
                        "warning": warnings,
                        "note": notes,
                    },
                    "exit": exit_code,
                },
                indent=2,
            )
        )
    else:
        if reports:
            print("\n\n".join(reports))
            print()
        if diagnostics:
            print(render_all(diagnostics))
        print(
            f"repro-lint: {checked} program(s) checked, "
            f"{errors} error(s), {warnings} warning(s)"
        )
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
