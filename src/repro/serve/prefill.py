"""A prompt range's trip through the prefix trie: attach, forward, register.

Paged mode (``Scheduler(paged=True)``) stores KV state in fixed-size
blocks from a shared :class:`~repro.serve.paging.BlockPool` and shares
full prompt-prefix blocks across requests through a
:class:`~repro.serve.prefix_cache.PrefixCache` (copy-on-write, with
eviction-policy state snapshots).  :class:`PrefixPrefill` is the one
place that protocol runs:

- :meth:`~PrefixPrefill.attach` adopts the longest cached prefix of a
  freshly admitted sequence's prompt — copy-on-write blocks, the deepest
  pure policy snapshot, the taint of an unsnapshotted adoption — and
  leaves the sequence's trie cursor on the node its prefill continues
  registering from;
- :meth:`~PrefixPrefill.forward` prefills one range of the effective
  prompt: the model's continuation over the range, then one
  ``observe_continuation`` per layer — split at block boundaries only
  while the sequence registers its prompt blocks (each boundary needs a
  policy snapshot) — and every freshly written full block inserted into
  the trie;
- :meth:`~PrefixPrefill.sweep` ends every round by dropping the cursor of
  a sequence whose node the round's allocations reclaimed
  (:func:`~repro.serve.request.prefix_cursor`);
- :meth:`~PrefixPrefill.probe` answers the fleet router's prefix-affinity
  question without touching the trie's clocks or counters.

The equivalence guarantee extends to paging: tokens are bit-identical
dense vs paged, at any block size, with or without prefix hits —
``tests/serve/test_paged_equivalence.py`` and the fuzz suite lock this
in.

Chunked prefill (``Scheduler(prefill_chunk=N)``) bounds the prompt rows
computed per round, Sarathi-style: an admitted prompt is prefilled in
N-token chunks interleaved with the running batch's decode rounds (the
sequence sits in the ``PREFILLING`` state, holding a batch slot but not
sampling, until its last chunk lands).  A chunk is one :meth:`forward`
call and one segment of the model's forward (row-count-invariant linear
layers, width-invariant softmax), so every prompt token's keys, values,
attention rows and the final logits are bitwise those of the
whole-prompt prefill — the hidden state is exact, not only the tokens —
and every policy's ``observe_continuation`` is chunk-invariant, so
generated tokens and eviction logs are bit-identical at any chunk
budget.  The win is latency shape only: no single round carries a whole
long prompt, so decode rounds never stall behind one (the head-of-line
cycle spike visible in ``serve-bench batch --cosim``).
"""

from __future__ import annotations

import numpy as np

from repro.core.policies.base import PREFILL
from repro.serve.request import prefix_cursor

__all__ = ["PrefixPrefill", "effective_prompt"]


def effective_prompt(state):
    """The tokens an admission of ``state`` must prefill: the request
    prompt, extended with the already-generated tokens for a recompute
    resume (their KV entries are rebuilt by prefilling them — exact when
    no eviction budget reshaped the cache)."""
    prompt = state.request.prompt
    if not state.tokens:
        return prompt
    generated = np.asarray(state.tokens, dtype=prompt.dtype)
    return np.concatenate([prompt, generated])


class PrefixPrefill:
    """Prompt prefill through the prefix trie for one scheduler.

    ``prefix_cache`` and ``block_pool`` are the resource manager's
    (``prefix_cache`` is ``None`` when served dense or with prefix
    caching off, and every method then reduces to the plain chunked
    prefill); ``policy_factory`` builds the throwaway policy whose
    ``prefix_state_key`` :meth:`probe` matches against.
    """

    def __init__(self, model, prefix_cache, block_pool, policy_factory):
        self.model = model
        self.prefix_cache = prefix_cache
        self.block_pool = block_pool
        self.policy_factory = policy_factory
        self._probe_policy = None  # built on the first probe

    def attach(self, state):
        """Adopt the longest cached prefix of ``state``'s prompt
        (admission, before the first prefill chunk; a no-op without a
        prefix trie or for a non-shareable policy): a radix-trie lookup
        returns full-block coverage plus — for unbudgeted sequences — a
        partial mid-block tail.  The matched blocks attach copy-on-write,
        the deepest pure policy snapshot within the coverage is imported,
        and the trie node is remembered so the prefill keeps registering
        blocks from it.

        Budgeted sequences stop at the deepest snapshot-bearing node
        (the shrink-to-budget eviction consults the votes, which must be
        bit-exact).  An unbudgeted sequence may outrun its snapshot —
        rows adopted without their vote contributions taint the policy
        state, which is harmless for its own tokens (the votes are never
        consulted without a budget) but makes its later boundary exports
        impure, so they are registered without snapshots."""
        policy = state.policy
        prefix_cache = self.prefix_cache
        if prefix_cache is None or not policy.prefix_shareable:
            return
        budget = state.request.budget
        n_layers = self.model.config.n_layers
        hit = prefix_cache.match(
            state.prompt_tokens,
            policy.prefix_state_key(),
            budgeted=budget is not None,
        )
        state.prefix_node = hit.parent
        if not hit.shared_length:
            return
        nodes = list(hit.nodes)
        if hit.tail_node is not None:
            nodes.append(hit.tail_node)
        state.cache.attach_prefix(
            [
                [node.layer_block_ids[layer] for node in nodes]
                for layer in range(n_layers)
            ],
            hit.shared_length,
        )
        if hit.policy_length:
            for layer in range(n_layers):
                policy.import_prefill_state(
                    layer, hit.policy_state[layer], hit.policy_length
                )
        state.prefix_tainted = hit.tainted
        assert not (state.prefix_tainted and budget is not None)
        state.prefilled = hit.shared_length

    def forward(self, state, rows):
        """Prefill the next ``rows`` effective-prompt rows of ``state``
        (from ``state.prefilled`` on, which advances past them) against
        the populated cache (adopted prefix blocks and earlier chunks)
        and feed their attention rows to the policy; returns the logits.

        The model's exact continuation (the range is one forward
        segment) plus every policy's chunk-invariant
        ``observe_continuation`` make the logits and the policy state
        bitwise equal to a one-shot prefill at any split.
        Observation is one call per layer over the whole range, except
        while the sequence registers its prompt blocks in the prefix
        trie (``state.prefix_node`` set by :meth:`attach`): then it is
        split at block boundaries, so the policy state at each boundary
        is a pure function of the tokens before it, and every freshly
        written full block is registered — before eviction can mutate
        it — with that snapshot.  A tainted sequence
        (partial/unsnapshotted adoption) registers its blocks without
        snapshots: their KV is still pure, its vote state is not.
        Registration covers *prompt* rows only, so provisional
        speculative tokens never enter the trie.
        """
        prompt = state.prompt_tokens
        policy = state.policy
        start = state.prefilled
        end = state.prefilled = start + rows
        prefill = self.model.prefill(
            prompt[start:end], state.cache, start_position=start
        )
        positions = np.arange(end)
        # After the forward: this chunk's own allocations may have made
        # the trie reclaim the node (see prefix_cursor).
        registering = prefix_cursor(state) is not None
        bounds = [start, end]
        if registering:
            block = self.prefix_cache.block_size
            bounds[1:1] = range((start // block + 1) * block, end, block)
        for lo, hi in zip(bounds, bounds[1:]):
            for layer, attn in enumerate(prefill.attention):
                attn_rows = attn[:, lo - start : hi - start, :hi]
                policy.observe_continuation(layer, attn_rows, positions[:hi], PREFILL)
            if registering and hi % block == 0:
                snapshot = None
                if not state.prefix_tainted:
                    snapshot = [
                        policy.export_prefill_state(layer, hi)
                        for layer in range(self.model.config.n_layers)
                    ]
                state.prefix_node = self.prefix_cache.insert(
                    state.prefix_node,
                    prompt[hi - block : hi],
                    [layer.block_ids[hi // block - 1] for layer in state.cache],
                    snapshot,
                    self.block_pool,
                )
        return prefill.logits

    @staticmethod
    def sweep(states):
        """End of round: no live sequence keeps a trie node the round's
        allocations reclaimed (see :func:`prefix_cursor`)."""
        for state in states:
            prefix_cursor(state)

    def probe(self, request):
        """Longest cached prefix (in tokens) the trie would adopt for
        ``request``'s prompt — a pure read that touches no LRU clocks and
        no hit counters; 0 when prefix sharing cannot apply (dense mode,
        prefix caching off, or a non-shareable eviction policy)."""
        if self.prefix_cache is None:
            return 0
        policy = self._probe_policy
        if policy is None:
            policy = self._probe_policy = self.policy_factory()
        if not policy.prefix_shareable:
            return 0
        return self.prefix_cache.probe(
            np.asarray(request.prompt),
            policy.prefix_state_key(),
            budgeted=request.budget is not None,
        )
