"""Fig. 8 (left): language-modeling perplexity vs KV cache size.

Paper setup: Llama-2 7B (max seq 4096) on 1000 PG-19 samples, comparing
StreamingLLM, H2O, and voting-based eviction across cache sizes
{128, 256, 512, 1024, 2048, 4096}; voting wins at every size and the
curves converge at the full cache.

Scaled setup here (summarized in README section "`fig8_left` —
perplexity vs cache size"): the
zoo's trained small Llama-style model (context 640) on synthetic long
books, evaluation windows of 512 tokens, cache sizes scaled by 1/8 —
{16, 32, 64, 128, 256, 512} — so the compression ratios sweep the same
range (1/32 … 1) as the paper's 128/4096 … 4096/4096.  The reserved
length scales 32 → 8 accordingly.
"""

from __future__ import annotations

from repro.core import (
    FullCachePolicy,
    GenerationEngine,
    H2OPolicy,
    StreamingLLMPolicy,
    VotingPolicy,
)
from repro.experiments.common import ExperimentResult, eval_windows, mean_perplexity
from repro.zoo import get_pretrained

__all__ = ["run", "CACHE_SIZES", "PAPER_TREND"]

#: Scaled cache sizes (1/8 of the paper's {128..4096} at 1/8 the context).
CACHE_SIZES = (16, 32, 64, 128, 256, 512)

#: Qualitative expectations from the paper's plot (who wins where).
PAPER_TREND = {
    "ordering": ("voting", "h2o", "streaming"),
    "converges_at_full_cache": True,
}

#: Scaled reserved length (paper: 32 at context 4096).
RESERVED_LENGTH = 8

#: Common prefill length: every configuration scores exactly the tokens
#: ``PREFILL_LENGTH .. window_length-1``, so perplexities are comparable.
PREFILL_LENGTH = 64


def _policies(n_layers, budget):
    """Fresh policy instances for one (budget) configuration."""
    return {
        "streaming": StreamingLLMPolicy(n_layers, n_sinks=min(4, budget // 4 or 1)),
        "h2o": H2OPolicy(n_layers, recent_window=max(budget // 4, 1)),
        "voting": VotingPolicy(n_layers, reserved_length=RESERVED_LENGTH),
    }


def run(n_windows=4, window_length=512, cache_sizes=CACHE_SIZES, model_name="small"):
    """Reproduce Fig. 8 (left).

    Returns an :class:`ExperimentResult` with one row per cache size and
    one column per policy (plus the full-cache reference).
    """
    model, tokenizer, _ = get_pretrained(model_name)
    n_layers = model.config.n_layers
    windows = eval_windows(tokenizer, n_windows, window_length)

    # Full-cache reference (upper bound on quality), same scored tokens.
    full_engine = GenerationEngine(model, FullCachePolicy(n_layers), budget=None)
    full_ppl = mean_perplexity(full_engine, windows, PREFILL_LENGTH)

    rows = []
    for budget in cache_sizes:
        row = {"cache_size": budget}
        for name, policy in _policies(n_layers, budget).items():
            engine = GenerationEngine(model, policy, budget=budget)
            row[name] = mean_perplexity(engine, windows, PREFILL_LENGTH)
        row["full_cache"] = full_ppl
        rows.append(row)

    return ExperimentResult(
        experiment_id="fig8_left",
        title="Perplexity vs KV cache size (StreamingLLM / H2O / Voting)",
        rows=rows,
        notes=(
            "Scaled to the trained small model: eval length 512, cache "
            f"sizes {list(cache_sizes)} (paper: Llama-2 7B, length 4096, "
            "caches 128-4096). Lower is better; paper finds voting <= h2o "
            "<= streaming at every size."
        ),
    )
