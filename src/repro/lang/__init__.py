"""MiniC: a small C-like language compiled to the repro ISA.

Features: ``int``/``float``/``char`` (= int) scalars, pointers, global and
local arrays, global initializers, string literals, full C expression
grammar (including ``&&``/``||`` short-circuiting, ``?:``, compound
assignment, ``++``/``--``), ``if``/``while``/``do``/``for``/``break``/
``continue``/``return``, recursion, and the ``print_int``/``print_float``/
``put_char`` debug builtins.

The code generator follows MIPS o32 conventions so that the limit study's
perfect-inlining and perfect-unrolling transformations apply exactly as in
the paper (see :mod:`repro.lang.codegen`).

Only :class:`CompileError` is imported eagerly.  Every other name loads its
submodule on first access (PEP 562), so a consumer that merely catches
compile errors — a render served from the artifact cache — never imports
the compiler, the linter or the static analyses they build on.
"""

from importlib import import_module

from repro.lang.errors import CompileError

_LAZY = {
    "BUILTINS": "semantics",
    "CheckedUnit": "semantics",
    "ReferenceInterpreter": "reference",
    "ReferenceResult": "reference",
    "check": "semantics",
    "compile_source": "compiler",
    "compile_to_assembly": "compiler",
    "interpret": "reference",
    "lint_checked": "lint",
    "lint_minic": "lint",
    "parse": "parser",
    "tokenize": "lexer",
}

__all__ = ["CompileError", *sorted(_LAZY)]


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
