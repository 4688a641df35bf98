"""Benchmark suite registry (the paper's Table 1)."""

from __future__ import annotations

from repro.bench.programs import ALL_SPECS, guarded
from repro.bench.spec import BenchmarkSpec

#: Name -> spec, in Table 1 order.
SUITE: dict[str, BenchmarkSpec] = {spec.name: spec for spec in ALL_SPECS}

#: The paper's seven non-numeric (C) benchmarks.
NON_NUMERIC: tuple[str, ...] = tuple(
    spec.name for spec in ALL_SPECS if not spec.numeric
)

#: The paper's three FORTRAN benchmarks.
NUMERIC: tuple[str, ...] = tuple(spec.name for spec in ALL_SPECS if spec.numeric)


#: Name -> spec of the programs outside Table 1 (the guarded demo).
DEMOS: dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in (guarded.BRANCHES, guarded.GUARDED)
}


def get(name: str) -> BenchmarkSpec:
    """Look up a program by name: a Table 1 benchmark or a demo."""
    spec = SUITE.get(name) or DEMOS.get(name)
    if spec is None:
        known = ", ".join([*SUITE, *DEMOS])
        raise KeyError(f"unknown benchmark {name!r} (known: {known})")
    return spec
