"""Policy zoo: every registered eviction policy at one tight budget.

An extension beyond the paper's three-way comparison: ranks all eight
policies (including the random control and the related-work extensions)
on the language-modeling task at an aggressive compression ratio.
"""

from __future__ import annotations

from repro.core import GenerationEngine, make_policy
from repro.experiments.common import ExperimentResult, eval_windows, mean_perplexity
from repro.zoo import get_pretrained

__all__ = ["run", "POLICY_CONFIGS"]

#: policy name -> constructor kwargs used at evaluation time.
POLICY_CONFIGS = {
    "voting": {"reserved_length": 8},
    "h2o": {"recent_window": 8},
    "streaming": {"n_sinks": 4},
    "tova": {"protected_prefix": 4},
    "scissorhands": {"history": 64, "protected_prefix": 4},
    "decayed_h2o": {"half_life": 128, "protected_prefix": 4},
    "random": {"protected_prefix": 4, "seed": 0},
}


def run(budget=32, model_name="small", n_windows=3, window_length=512,
        prefill_length=64):
    """Rank all policies by perplexity at ``budget``."""
    model, tokenizer, _ = get_pretrained(model_name)
    windows = eval_windows(tokenizer, n_windows, window_length)

    rows = []
    for name, kwargs in POLICY_CONFIGS.items():
        policy = make_policy(name, n_layers=model.config.n_layers, **kwargs)
        engine = GenerationEngine(model, policy, budget=budget)
        perplexity = mean_perplexity(engine, windows, prefill_length)
        rows.append({"policy": name, "perplexity": perplexity})
    rows.sort(key=lambda r: r["perplexity"])
    return ExperimentResult(
        "policy_zoo",
        f"All eviction policies at budget {budget} (window {window_length})",
        rows=rows,
        notes="Extension beyond the paper's three-way comparison.",
    )
