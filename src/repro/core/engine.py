"""Generation engine: drives the model, the cache, and an eviction policy.

This is the software twin of VEDA's system behaviour (paper Fig. 3 plus
Sec. V): prefill populates the cache and casts votes row by row; the
generation phase appends one kv vector per step, observes the attention
row, and evicts when the cache exceeds its budget.  The same engine
performs teacher-forced perplexity evaluation for the Fig. 8 (left)
language-modeling experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.policies.base import GENERATION, PREFILL
from repro.core.sampling import greedy
from repro.numerics.online import stable_softmax

__all__ = [
    "GenerationEngine",
    "GenerationResult",
    "PerplexityResult",
    "budget_from_ratio",
    "enforce_budget",
    "observe_and_evict",
    "sequence_capacity",
    "unservable_reason",
]


def budget_from_ratio(ratio, prompt_length, minimum=32):
    """The paper's target cache size ``S = Round(r * P)`` (Fig. 3, line 1).

    ``minimum`` enforces the reserved-length lower bound (R = 32).
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"compression ratio must be in (0, 1], got {ratio}")
    return max(int(round(ratio * prompt_length)), minimum)


def sequence_capacity(prompt_length, max_new_tokens, budget):
    """Cache capacity for one sequence: unbounded when ``budget`` is
    ``None``; otherwise prefill may transiently exceed the budget and the
    steady state is ``budget + 1`` (append happens before eviction).

    Shared by :class:`GenerationEngine` and :class:`repro.serve.Scheduler`
    so both size per-sequence caches identically.
    """
    if budget is None:
        return prompt_length + max_new_tokens + 1
    return max(prompt_length, budget) + 1


def unservable_reason(config, tokens, total_length):
    """Why a model of ``config`` cannot serve a sequence, or ``None``.

    Returns ``(reason, detail)`` — ``"invalid_token"`` when ``tokens``
    holds anything but integer ids in ``[0, vocab_size)``,
    ``"exceeds_max_seq_len"`` when the sequence (input plus everything to
    be generated) is longer than the model's positional table.  Checked
    where a sequence enters (:meth:`GenerationEngine.generate` /
    :meth:`~GenerationEngine.perplexity`,
    :meth:`repro.serve.Scheduler.submit`), so the model loop never meets
    either mid-round — where a negative id would silently read
    ``embed[-k]`` and an ``IndexError`` would strand every other sequence
    of the batch — and can check its RoPE range once per call.
    """
    tokens = np.asarray(tokens)
    if not np.issubdtype(tokens.dtype, np.integer) or (
        tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab_size)
    ):
        return (
            "invalid_token",
            f"token ids must be integers in [0, {config.vocab_size})",
        )
    if total_length > config.max_seq_len:
        return (
            "exceeds_max_seq_len",
            f"sequence of {total_length} tokens exceeds the model's "
            f"max_seq_len {config.max_seq_len}",
        )
    return None


def enforce_budget(policy, cache, budget, step, log, evictions_per_step=None):
    """Evict from every layer of ``cache`` until it is within ``budget``.

    The one canonical eviction loop, shared by :class:`GenerationEngine`
    (single sequence) and :class:`repro.serve.Scheduler` (per sequence in
    a batch): ask the policy for a victim, commit it to the cache, then
    let the policy compact its slot-aligned state.  ``log`` collects
    ``(step, layer, position)`` triples; ``evictions_per_step`` caps the
    evictions per layer (``None`` = shrink to budget immediately).
    """
    if budget is None or all(layer.length <= budget for layer in cache):
        return
    for layer_index, layer_cache in enumerate(cache):
        evicted = 0
        while layer_cache.length > budget:
            if evictions_per_step is not None and evicted >= evictions_per_step:
                break
            slot = policy.select_victim(layer_index, layer_cache.positions)
            position = layer_cache.evict(slot)
            policy.on_evict(layer_index, slot)
            log.append((step, layer_index, position))
            evicted += 1


def observe_and_evict(
    policy, cache, attention, budget, step, log, evictions_per_step=None, width=None
):
    """The decode epilogue of one sequence: observe, then evict.

    Shared by every decode path — :meth:`GenerationEngine.generate` and
    :meth:`~GenerationEngine.perplexity`, the scheduler's batched decode
    and its speculative-verify bookkeeping — so they cannot drift apart:
    one ``policy.observe_step`` over the token's per-layer ``(H, l)``
    ``attention`` rows and the cache's slot positions, then
    :func:`enforce_budget`.  ``width`` is a speculative row's causal
    width: the verify pass appended every row up front, so positions are
    sliced back to what the row's sequential step would have seen.
    """
    policy.observe_step(
        attention, [layer.positions[:width] for layer in cache], GENERATION
    )
    enforce_budget(policy, cache, budget, step, log, evictions_per_step)


@dataclass
class GenerationResult:
    """Outcome of :meth:`GenerationEngine.generate`."""

    tokens: list
    cache_lengths: list = field(default_factory=list)
    evictions: list = field(default_factory=list)  # (step, layer, position)

    @property
    def num_evictions(self):
        return len(self.evictions)


@dataclass
class PerplexityResult:
    """Outcome of :meth:`GenerationEngine.perplexity`."""

    nll_per_token: list
    budget: int | None

    @property
    def mean_nll(self):
        return float(np.mean(self.nll_per_token))

    @property
    def perplexity(self):
        return float(np.exp(self.mean_nll))

    @property
    def num_tokens(self):
        return len(self.nll_per_token)


class GenerationEngine:
    """Couples a :class:`CachedTransformer` with an eviction policy.

    Parameters
    ----------
    model:
        A :class:`repro.models.inference.CachedTransformer`.
    policy:
        An :class:`repro.core.policies.base.EvictionPolicy`.
    budget:
        Target KV cache size ``S`` per layer; ``None`` disables eviction
        (full-cache baseline).
    evictions_per_step:
        Maximum evictions per layer per processed token; ``None`` means
        "shrink to budget immediately".  The paper's Fig. 3 evicts exactly
        one per generated token (its cache only ever exceeds budget by
        one); this knob exists for the eviction-granularity ablation.
    """

    def __init__(self, model, policy, budget=None, evictions_per_step=None):
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if evictions_per_step is not None and evictions_per_step <= 0:
            raise ValueError("evictions_per_step must be positive")
        self.model = model
        self.policy = policy
        self.budget = budget
        self.evictions_per_step = evictions_per_step

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _capacity(self, prompt_length, max_new_tokens):
        return sequence_capacity(prompt_length, max_new_tokens, self.budget)

    def _check_servable(self, tokens, total_length):
        problem = unservable_reason(self.model.config, tokens, total_length)
        if problem is not None:
            raise ValueError(problem[1])

    def _observe_prefill(self, attention, positions):
        """Feed the causal attention matrices to the policy, one block
        (= one ``observe_block`` call) per layer.

        Policies with a vectorized ``observe_block`` (VotingPolicy) absorb
        the whole prefill in one numpy pass; everyone else falls back to
        the base class's row-by-row replay with identical semantics.
        """
        for layer, attn in enumerate(attention):
            self.policy.observe_block(layer, attn, positions, PREFILL)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, prompt, max_new_tokens, sampler=greedy, seed=0, eos=None):
        """Prefill ``prompt`` then generate up to ``max_new_tokens`` tokens.

        Returns a :class:`GenerationResult`; ``tokens`` holds only the
        generated continuation.
        """
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or prompt.shape[0] == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        self._check_servable(prompt, prompt.shape[0] + max_new_tokens)
        rng = np.random.default_rng(seed)
        self.policy.reset()

        cache = self.model.new_cache(self._capacity(prompt.shape[0], max_new_tokens))
        result = GenerationResult(tokens=[])

        prefill = self.model.prefill(prompt, cache)
        positions = np.arange(prompt.shape[0])
        self._observe_prefill(prefill.attention, positions)
        enforce_budget(
            self.policy, cache, self.budget, 0, result.evictions, self.evictions_per_step
        )
        result.cache_lengths.append(cache[0].length)

        logits = prefill.logits
        position = prompt.shape[0]
        for step in range(1, max_new_tokens + 1):
            token = sampler(logits, rng)
            result.tokens.append(token)
            if eos is not None and token == eos:
                break
            step_result = self.model.step(token, position, cache)
            observe_and_evict(
                self.policy,
                cache,
                step_result.attention,
                self.budget,
                step,
                result.evictions,
                self.evictions_per_step,
            )
            result.cache_lengths.append(cache[0].length)
            logits = step_result.logits
            position += 1
        return result

    # ------------------------------------------------------------------
    # Language modeling (Fig. 8 left)
    # ------------------------------------------------------------------
    def perplexity(self, tokens, prefill_length=None):
        """Teacher-forced perplexity of ``tokens`` under the cache budget.

        The first ``prefill_length`` tokens are prefetched in parallel
        (default: the cache budget, so the cache starts exactly full, or
        half the sequence when running without a budget); every later
        token is processed auto-regressively with eviction active, which
        is the "fixed target size … for language modeling" configuration
        described under Fig. 3.

        NLL is recorded for every token after the prefill.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1 or tokens.shape[0] < 2:
            raise ValueError("need at least two tokens for perplexity")
        total = tokens.shape[0]
        self._check_servable(tokens, total)
        if prefill_length is None:
            prefill_length = self.budget if self.budget is not None else total // 2
        prefill_length = int(min(max(prefill_length, 1), total - 1))
        self.policy.reset()

        cache = self.model.new_cache(
            self._capacity(prefill_length, total - prefill_length)
        )
        evictions = []
        nll = []

        prefill = self.model.prefill(tokens[:prefill_length], cache)
        self._observe_prefill(prefill.attention, np.arange(prefill_length))
        enforce_budget(
            self.policy, cache, self.budget, 0, evictions, self.evictions_per_step
        )
        nll.append(_token_nll(prefill.logits, tokens[prefill_length]))

        for i in range(prefill_length, total - 1):
            step_result = self.model.step(tokens[i], i, cache)
            observe_and_evict(
                self.policy,
                cache,
                step_result.attention,
                self.budget,
                i,
                evictions,
                self.evictions_per_step,
            )
            nll.append(_token_nll(step_result.logits, tokens[i + 1]))
        return PerplexityResult(nll_per_token=nll, budget=self.budget)


def _token_nll(logits, target):
    probs = stable_softmax(logits)
    return float(-np.log(max(probs[int(target)], 1e-300)))
