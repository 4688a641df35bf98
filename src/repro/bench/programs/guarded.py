"""The guarded-instruction ablation's demo (paper §6), compiled both ways.

A guard-friendly workload: clamps, abs, max-reductions — the classic
if-conversion targets — over position-hashed data.  Not a Table 1 row.
"""

from dataclasses import replace

from repro.bench.spec import BenchmarkSpec

_SOURCE = """
int data[1024];
int main() {
    for (int i = 0; i < 1024; i++)
        data[i] = ((i * 2654435761) >> 7) % 801 - 400;
    int clamped = 0; int biggest = 0; int negs = 0; int band = 0;
    for (int rep = 0; rep < 6; rep++) {
        for (int i = 0; i < 1024; i++) {
            int v = data[i] + rep;
            if (v < 0) negs = negs + 1;
            if (v < 0) v = -v;
            if (v > 300) v = 300;
            if (v > biggest) biggest = v;
            if (v > 100 && v < 200) band = band + 1;
            clamped += v;
        }
    }
    return clamped + biggest * 7 + negs * 3 + band;
}
"""

# One fixed workload, whatever the scale.
BRANCHES = BenchmarkSpec(
    name="demo-branches",
    language="C",
    description="guarded demo with branches",
    numeric=False,
    source=lambda scale: _SOURCE,
)
GUARDED = replace(
    BRANCHES,
    name="demo-guarded",
    description="guarded demo with guarded moves",
    if_convert=True,
)
