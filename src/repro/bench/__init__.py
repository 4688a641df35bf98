"""Benchmark analogues of the paper's Table 1 suite.

Seven non-numeric C programs (awk, ccom, eqntott, espresso, gcc, irsim,
latex) and three FORTRAN-style numeric programs (matrix300, spice2g6,
tomcatv), written in MiniC with deterministic generated workloads.  See
DESIGN.md §2 for why each analogue preserves the control-flow behaviour
the study measures.  :func:`get` also knows the ``DEMOS`` outside it.
"""

from repro.bench.spec import BenchmarkSpec
from repro.bench.suite import DEMOS, NON_NUMERIC, NUMERIC, SUITE, get

__all__ = ["BenchmarkSpec", "DEMOS", "NON_NUMERIC", "NUMERIC", "SUITE", "get"]
