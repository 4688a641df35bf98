"""Benchmark specification and compilation cache."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa import Program


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark analogue of a paper Table 1 row.

    ``source`` maps a positive integer *scale* to MiniC source; larger
    scales run more work with the same code.  ``expected`` optionally maps a
    scale to the program's known exit checksum, validating that the compiled
    benchmark computes what it claims to (guards against silent compiler or
    workload bugs corrupting the study).  ``if_convert`` compiles with
    guarded-move if-conversion.
    """

    name: str
    language: str  # "C" or "FORTRAN", as in Table 1
    description: str
    numeric: bool
    source: Callable[[int], str]
    default_scale: int = 1
    expected: dict[int, int] = field(default_factory=dict)
    if_convert: bool = False

    def compile(self, scale: int | None = None) -> Program:
        actual_scale = self.default_scale if scale is None else scale
        return _compile_cached(self, actual_scale)


_CACHE: dict[tuple[str, int], Program] = {}


def _compile_cached(spec: BenchmarkSpec, scale: int) -> Program:
    key = (spec.name, scale)
    if key not in _CACHE:
        # Imported here: a render served from the artifact cache never
        # compiles, so it never pays for loading the compiler.
        from repro.lang.compiler import compile_source

        _CACHE[key] = compile_source(
            spec.source(scale), name=spec.name, if_convert=spec.if_convert
        )
    return _CACHE[key]
