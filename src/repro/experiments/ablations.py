"""Design-choice ablations (README section "`ablations` —
algorithm/hardware sensitivity sweeps").

The paper fixes several design decisions with brief justifications; these
harnesses measure each one:

- :func:`voting_threshold` — the σ term of the adaptive threshold
  (``b = 0`` collapses it to a pure-mean criterion).
- :func:`reserved_length` — the attention-sink prefix R.
- :func:`eviction_granularity` — one eviction per step (paper Fig. 3)
  vs shrink-to-target.
- :func:`strided_derate_sensitivity` — how much of the flexible
  dataflow's decode win depends on the DRAM row-buffer penalty assumed
  for transpose-pattern access.
"""

from __future__ import annotations

from repro.accel.config import baseline_config, veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.core import GenerationEngine, VotingPolicy
from repro.experiments.common import ExperimentResult, eval_windows, mean_perplexity
from repro.zoo import get_pretrained

__all__ = [
    "voting_threshold",
    "reserved_length",
    "eviction_granularity",
    "strided_derate_sensitivity",
]


def _eval_setup(model_name, n_windows, window_length):
    model, tokenizer, _ = get_pretrained(model_name)
    return model, eval_windows(tokenizer, n_windows, window_length)


def _mean_ppl(model, policy, windows, budget, prefill_length, **engine_kwargs):
    engine = GenerationEngine(model, policy, budget=budget, **engine_kwargs)
    return mean_perplexity(engine, windows, prefill_length)


def voting_threshold(
    b_values=(0.0, 0.1, 0.2, 0.4), budget=32, model_name="small",
    n_windows=3, window_length=512, prefill_length=64,
):
    """PPL vs the σ coefficient of ``T = a*mean − b*σ``."""
    model, windows = _eval_setup(model_name, n_windows, window_length)
    rows = []
    for b in b_values:
        policy = VotingPolicy(model.config.n_layers, b=b, reserved_length=8)
        rows.append(
            {
                "b": b,
                "perplexity": _mean_ppl(
                    model, policy, windows, budget, prefill_length
                ),
            }
        )
    return ExperimentResult(
        "ablation_threshold",
        f"Adaptive-threshold σ coefficient (budget {budget})",
        rows=rows,
        notes="b=0 is a pure-mean criterion; the paper recommends b=0.2.",
    )


def reserved_length(
    r_values=(0, 4, 8, 16), budget=32, model_name="small",
    n_windows=3, window_length=512, prefill_length=64,
):
    """PPL vs the attention-sink prefix R (paper: 32 at context 4096)."""
    model, windows = _eval_setup(model_name, n_windows, window_length)
    rows = []
    for r in r_values:
        policy = VotingPolicy(model.config.n_layers, reserved_length=r)
        rows.append(
            {
                "reserved_length": r,
                "perplexity": _mean_ppl(
                    model, policy, windows, budget, prefill_length
                ),
            }
        )
    return ExperimentResult(
        "ablation_reserved",
        f"Attention-sink reserved length (budget {budget})",
        rows=rows,
        notes="R=0 disables sink protection (StreamingLLM's failure mode).",
    )


def eviction_granularity(
    budget=32, model_name="small", n_windows=3, window_length=512,
    prefill_length=64,
):
    """One-eviction-per-step (paper Fig. 3) vs immediate shrink-to-target."""
    model, windows = _eval_setup(model_name, n_windows, window_length)
    rows = []
    for label, kwargs in (
        ("shrink_to_target", {}),
        ("one_per_step", {"evictions_per_step": 1}),
    ):
        policy = VotingPolicy(model.config.n_layers, reserved_length=8)
        rows.append(
            {
                "granularity": label,
                "perplexity": _mean_ppl(
                    model, policy, windows, budget, prefill_length, **kwargs
                ),
            }
        )
    return ExperimentResult(
        "ablation_granularity",
        f"Eviction granularity (budget {budget})",
        rows=rows,
        notes=(
            "With prefill larger than the budget, one-per-step approaches "
            "the budget gradually, briefly keeping more context."
        ),
    )


def strided_derate_sensitivity(derates=(0.4, 0.5, 0.6, 0.8, 1.0)):
    """Fixed-dataflow decode penalty vs the assumed strided-DRAM derate.

    At derate 1.0 the only remaining baseline penalty is adder-tree
    padding — isolating how much of Fig. 8 (center) comes from memory
    irregularity vs compute underutilization.
    """
    model = llama2_7b_shapes()
    veda = AcceleratorSimulator(veda_config(), model)
    veda_mean = veda.run(512, 256).mean_decode_attention()
    rows = []
    for derate in derates:
        hw = baseline_config(dram_strided_derate=derate)
        sim = AcceleratorSimulator(hw, model)
        baseline_mean = sim.run(512, 256).mean_decode_attention()
        rows.append(
            {
                "strided_derate": derate,
                "veda_vs_baseline": veda_mean / baseline_mean,
            }
        )
    return ExperimentResult(
        "ablation_strided",
        "Decode attention ratio vs strided-access derate",
        rows=rows,
        notes="Lower ratio = larger flexible-dataflow win.",
    )
