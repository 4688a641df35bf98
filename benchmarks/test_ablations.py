"""Bench: ablation studies beyond the paper (DESIGN.md §5).

* predictor quality sweep on the SP-CD-MF machine;
* finite scheduling windows on the SP machine (the paper's unlimited
  window assumption, quantified);
* non-unit latencies (the paper's unit-latency assumption, quantified);
* perfect inlining's contribution per machine.
"""

from dataclasses import replace

from repro.experiments import SuiteRunner, ablations


def test_ablation_predictors(benchmark, warm_runner):
    result = benchmark.pedantic(
        lambda: ablations.predictor_ablation(warm_runner, "espresso"),
        rounds=1,
        iterations=1,
    )
    parallelism = {name: p for name, _, p in result.rows}
    # Perfect prediction dominates everything (and equals ORACLE).
    assert parallelism["perfect"] >= max(parallelism.values()) - 1e-9
    # Any trained predictor beats the worse constant direction.
    worst_constant = min(parallelism["always-taken"], parallelism["always-not-taken"])
    for name in ("one-bit", "two-bit", "gshare", "profile"):
        assert parallelism[name] >= worst_constant - 1e-9
    print()
    print(result.render())


def test_ablation_window(benchmark, warm_runner):
    result = benchmark.pedantic(
        lambda: ablations.window_ablation(
            warm_runner, "gcc", windows=(16, 64, 256, 1024)
        ),
        rounds=1,
        iterations=1,
    )
    values = [p for _, p in result.rows]
    assert values == sorted(values), "larger windows can only help"
    assert values[-1] > values[0], "window size must matter somewhere"
    print()
    print(result.render())


def test_ablation_latency(benchmark, warm_runner):
    result = benchmark.pedantic(
        lambda: ablations.latency_ablation(warm_runner, "spice2g6"),
        rounds=1,
        iterations=1,
    )
    # Unit latency "measures all of the parallelism" (§4.4); non-unit
    # latencies change the measured numbers.
    unit_oracle = result.rows[0][1]
    slow_oracle = result.rows[-1][1]
    assert slow_oracle != unit_oracle
    print()
    print(result.render())


def test_ablation_guarded(benchmark, warm_runner):
    # At least 150k steps, so both demo variants run to completion.
    config = warm_runner.config
    runner = SuiteRunner(
        replace(
            config,
            max_steps=max(config.max_steps, 150_000),
            cache_dir=warm_runner.cache_dir,
        )
    )
    result = benchmark.pedantic(
        lambda: ablations.guarded_ablation(runner),
        rounds=1,
        iterations=1,
    )
    (_, b_branches, b_dist, b_sp, b_mf), (_, g_branches, g_dist, g_sp, g_mf) = result.rows
    # §6: guarded instructions increase the distance between mispredicted
    # branches, which lifts the SP machine...
    assert g_branches < b_branches
    assert g_dist > b_dist
    assert g_sp > b_sp
    # ...but §6 also warns they are "inefficient for following multiple
    # complex flows of control": the guarded move's read of its old value
    # serializes what SP-CD-MF used to overlap.
    assert g_mf < b_mf * 1.5
    print()
    print(result.render())


def test_ablation_flows(benchmark, warm_runner):
    result = benchmark.pedantic(
        lambda: ablations.flows_ablation(warm_runner, "gcc", flow_counts=(1, 2, 4, 8)),
        rounds=1,
        iterations=1,
    )
    cd_mf = [cd for _, cd, _ in result.rows]
    sp = [sp for _, _, sp in result.rows]
    assert cd_mf == sorted(cd_mf) and sp == sorted(sp)
    # §6's "small-scale multiprocessor": a handful of flows captures most
    # of the speculative multiple-flow limit.
    assert sp[-2] > 0.5 * sp[-1]
    print()
    print(result.render())


def test_ablation_inlining(benchmark, warm_runner):
    result = benchmark.pedantic(
        lambda: ablations.inlining_ablation(
            warm_runner, benchmarks=("ccom", "eqntott", "latex")
        ),
        rounds=1,
        iterations=1,
    )
    # Call-heavy programs gain at ORACLE from removing the $sp chain.
    gains = {name: oracle for name, _, _, oracle in result.rows}
    assert max(gains.values()) > 1.2
    print()
    print(result.render())
