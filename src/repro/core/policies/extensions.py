"""Additional eviction policies from the paper's related-work space.

The VEDA paper positions voting against a design space of score-based
eviction heuristics; these implementations round out that space for the
policy-zoo comparison (``benchmarks/test_bench_policy_zoo.py``):

- :class:`TOVAPolicy` — Token Omission Via Attention (Oren et al. 2024):
  evict the entry with the lowest attention weight *from the most recent
  query only*.  Cheap and surprisingly strong, but myopic: one quiet step
  can evict a token the next step needs.
- :class:`ScissorhandsPolicy` — persistence of importance (Liu et al.,
  NeurIPS 2023, the paper's reference [8]): count how often each entry's
  attention *exceeds* the row mean within a sliding history; evict the
  entry that was pivotal least often.  The mirror image of voting (which
  counts below-threshold verdicts).
- :class:`DecayedAccumulationPolicy` — H2O's accumulated score with
  exponential forgetting.  Decay partially counters the item-count bias
  (old mass fades) at the cost of a tuned half-life; included as the
  natural "fix accumulation by decay" ablation point between H2O and
  voting.
"""

from __future__ import annotations

from repro.core.policies.base import AccumulatedScorePolicy, register_policy

__all__ = ["TOVAPolicy", "ScissorhandsPolicy", "DecayedAccumulationPolicy"]


@register_policy
class TOVAPolicy(AccumulatedScorePolicy):
    """Evicts the entry least attended by the newest token."""

    name = "tova"
    # Not opted in to prefix-cache sharing (nor to swap restore): the
    # serving suites exercise only voting's and H2O's snapshots.
    prefix_shareable = False
    #: The newest row replaces the scores (exact: ``0 * s + r == r`` for
    #: the nonnegative scores).
    decay = 0.0

    def __init__(self, n_layers, protected_prefix=1, recent_window=8):
        super().__init__(n_layers, protected_prefix, recent_window)

    def on_evict(self, layer, slot):
        # Slots past the newest row have nothing stored to compact.
        self._check_layer(layer)
        if slot < self._lengths[layer]:
            super().on_evict(layer, slot)


@register_policy
class ScissorhandsPolicy(AccumulatedScorePolicy):
    """Persistence-of-importance eviction.

    An entry earns a *pivotal hit* every step its (head-averaged)
    attention is at least the row mean; the entry with the fewest hits is
    evicted.  ``history`` bounds how far back hits count via exponential
    aging with that half-life.
    """

    name = "scissorhands"
    # Not opted in to prefix-cache sharing (nor to swap restore): the
    # serving suites exercise only voting's and H2O's snapshots.
    prefix_shareable = False

    def __init__(self, n_layers, history=64, protected_prefix=4, recent_window=8):
        super().__init__(n_layers, protected_prefix, recent_window)
        if history <= 0:
            raise ValueError("history must be positive")
        self.history = int(history)
        self.decay = 0.5 ** (1.0 / self.history)

    @staticmethod
    def _contribution(row):
        return row >= row.mean()

    #: Slot-aligned persistence scores of a layer (copy, for diagnostics).
    persistence = AccumulatedScorePolicy._slot_scores


@register_policy
class DecayedAccumulationPolicy(AccumulatedScorePolicy):
    """H2O with exponential forgetting of old attention mass."""

    name = "decayed_h2o"
    # Not opted in to prefix-cache sharing (nor to swap restore): the
    # serving suites exercise only voting's and H2O's snapshots.
    prefix_shareable = False

    def __init__(self, n_layers, half_life=128, protected_prefix=4, recent_window=8):
        super().__init__(n_layers, protected_prefix, recent_window)
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = int(half_life)
        self.decay = 0.5 ** (1.0 / self.half_life)

    #: Slot-aligned accumulated scores of a layer (copy, for diagnostics).
    accumulated = AccumulatedScorePolicy._slot_scores
