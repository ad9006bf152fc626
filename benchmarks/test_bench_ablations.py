"""Bench: design-choice ablations (README section "`ablations` —
algorithm/hardware sensitivity sweeps")."""

import pytest

from repro.experiments import ablations


@pytest.mark.benchmark(group="ablations")
def test_threshold_ablation(benchmark, save_table):
    result = benchmark.pedantic(
        lambda: ablations.voting_threshold(n_windows=2), rounds=1, iterations=1
    )
    save_table(result)
    ppl = {row["b"]: row["perplexity"] for row in result.rows}
    # The adaptive σ term must not hurt; at tight budgets it should help
    # or tie vs the pure-mean criterion.
    assert ppl[0.2] <= ppl[0.0] * 1.02


@pytest.mark.benchmark(group="ablations")
def test_reserved_length_ablation(benchmark, save_table):
    result = benchmark.pedantic(
        lambda: ablations.reserved_length(n_windows=2), rounds=1, iterations=1
    )
    save_table(result)
    ppl = {row["reserved_length"]: row["perplexity"] for row in result.rows}
    # Protecting the attention sink should not hurt.  On the tiny seed
    # checkpoint the margin sits inside run-to-run noise (observed
    # 3.338 vs 3.319), so assert a tolerance band rather than a strict
    # win; the saved table above is the artifact to eyeball.
    best_protected = min(ppl[4], ppl[8], ppl[16])
    assert best_protected <= ppl[0] * 1.02, (
        f"reserved-length protection regressed beyond noise:\n{result.to_table()}"
    )


@pytest.mark.benchmark(group="ablations")
def test_eviction_granularity_ablation(benchmark, save_table):
    result = benchmark.pedantic(
        lambda: ablations.eviction_granularity(n_windows=2), rounds=1, iterations=1
    )
    save_table(result)
    assert len(result.rows) == 2


@pytest.mark.benchmark(group="ablations")
def test_strided_derate_sensitivity(benchmark, save_table):
    result = benchmark.pedantic(
        ablations.strided_derate_sensitivity, rounds=1, iterations=1
    )
    save_table(result)
    ratios = [row["veda_vs_baseline"] for row in result.rows]
    # Weaker penalty (derate → 1.0) shrinks the flexible-dataflow win.
    assert ratios == sorted(ratios)
    assert ratios[-1] < 1.0  # tree padding alone still favours VEDA
