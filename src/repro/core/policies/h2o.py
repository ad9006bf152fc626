"""H2O baseline: accumulated-attention-score ("heavy hitter") eviction.

Zhang et al. (NeurIPS 2023), the paper's reference [21] and the strategy
critiqued in Fig. 2(a): every token's attention row is accumulated
column-wise into an importance vector, and the entry with the minimum
accumulated score is evicted.  Published H2O additionally always protects
the most recent ``recent_window`` tokens (the "local" half of its budget);
both the protected variant (default, faithful to the H2O paper) and the
*pure accumulation* variant (``recent_window=0``, the strawman analysed in
VEDA Fig. 2a) are supported.

The three biases the VEDA paper identifies live here by construction:

- *item-count bias*: early slots appear in more attention rows, so their
  accumulated scores have more summands;
- *criteria bias*: rows of different lengths have different means (softmax
  rows sum to 1), yet are summed on a common scale;
- *outlier bias*: a single huge score keeps a slot alive forever.
"""

from __future__ import annotations

from repro.core.policies.base import AccumulatedScorePolicy, register_policy

__all__ = ["H2OPolicy"]


@register_policy
class H2OPolicy(AccumulatedScorePolicy):
    """Accumulated-attention-score eviction with optional recency window."""

    name = "h2o"
    #: Accumulated scores are the only mutable state (slot-aligned per
    #: layer), so the snapshot hooks restore a swapped sequence exactly.
    swap_restorable = True

    def __init__(self, n_layers, recent_window=16):
        if recent_window < 0:
            raise ValueError("recent_window must be non-negative")
        super().__init__(n_layers, protected_prefix=0, recent_window=recent_window)

    #: The current importance vector for a layer (slot-aligned copy).
    accumulated = AccumulatedScorePolicy._slot_scores

    def export_prefill_state(self, layer, length):
        """Accumulated scores of slots ``[0, length)``; slots never
        observed export as zero."""
        self._check_layer(layer)
        return self._padded(layer, length).copy()
