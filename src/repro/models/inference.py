"""Pure-numpy cached inference path (prefill + auto-regressive decode).

This mirrors the two LLM phases described in the paper's background
section: *prefilling* encodes the prompt in parallel and builds the KV
cache; *generation* processes one token at a time, attending to the cache
and extending it.  Per-row attention scores are surfaced to the caller so
eviction policies (H2O's accumulation, VEDA's voting) can observe exactly
the ``s'`` vectors the hardware voting engine sees.

Decoding is batched: :meth:`CachedTransformer.step_batch` advances ``B``
independent sequences in lock-step, sharing one stacked matmul per linear
layer (the Orca observation modeled in ``experiments/batching.py`` —
weights are fetched once per batch) while attending to each sequence's
own :class:`~repro.core.kv_cache.KVCache`.  ``step`` is the batch-of-one
special case.  Batched linear algebra goes through :func:`batch_matmul`,
whose per-row accumulation order is independent of the batch size, so a
sequence decodes to bitwise-identical logits whether it runs alone or
inside any batch — the property the serving scheduler's equivalence
guarantee rests on.

The weights come from a trained :class:`repro.models.transformer.TransformerLM`
via ``state_dict``; ``tests/models/test_inference.py`` property-tests that
prefill+decode reproduces the training graph's logits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import ModelConfig
from repro.core.kv_cache import KVCache
from repro.models.rope import RopeTable, rotate_half
from repro.numerics.online import stable_softmax

__all__ = [
    "CachedTransformer",
    "StepResult",
    "BatchStepResult",
    "VerifyResult",
    "batch_matmul",
    "stable_softmax",
]


def batch_matmul(x, w):
    """``x @ w`` for ``x`` (B, D), ``w`` (D, F) — batch-size invariant.

    BLAS gemm kernels change their micro-kernel (and thus the summation
    order of each output element) with the number of rows, so ``(X @ W)[i]``
    is *not* bitwise equal across batch sizes.  ``np.einsum`` reduces each
    output element with a fixed sequential order over ``D`` regardless of
    ``B``, which makes batched decode bitwise identical to solo decode at
    a modest constant-factor cost — the right trade for a reproduction
    whose eviction decisions hinge on strict float comparisons.
    """
    return np.einsum("bd,df->bf", x, w)


class StepResult:
    """Output of one decode step (or one prefill).

    Attributes
    ----------
    logits:
        ``(V,)`` next-token logits (for prefill: logits of the last prompt
        token, which predicts the first generated token).
    attention:
        Per-layer attention probabilities.  For a decode step this is a
        list of ``(H, l)`` arrays (one row per head over the cache); for a
        prefill it is a list of ``(H, L, L)`` causal matrices.
    """

    __slots__ = ("logits", "attention")

    def __init__(self, logits, attention):
        self.logits = logits
        self.attention = attention


class BatchStepResult:
    """Output of one batched decode step over ``B`` sequences.

    Attributes
    ----------
    logits:
        ``(B, V)`` next-token logits, row ``b`` for sequence ``b``.
    attention:
        Per-layer, per-sequence attention rows: ``attention[layer][b]`` is
        the ``(H, l_b)`` probability row of sequence ``b`` over its own
        (post-append) cache.  Ragged across ``b`` because every sequence
        has an independent cache length.
    """

    __slots__ = ("logits", "attention")

    def __init__(self, logits, attention):
        self.logits = logits
        self.attention = attention


class VerifyResult:
    """Output of one speculative-decoding verify pass over ``L`` tokens.

    Attributes
    ----------
    logits:
        ``(L, V)`` next-token logits; row ``i`` is bitwise identical to
        the logits a sequential :meth:`CachedTransformer.step` of token
        ``i`` would have produced at that point.
    attention:
        Per-layer, per-row attention rows: ``attention[layer][i]`` is the
        ``(H, prior + i + 1)`` probability row of token ``i`` over the
        cache as it stood right after that token's kv append — exactly
        the row the sequential decode path hands to eviction policies.
        Ragged across ``i`` because each token sees one more slot than
        its predecessor.
    """

    __slots__ = ("logits", "attention")

    def __init__(self, logits, attention):
        self.logits = logits
        self.attention = attention


class _LayerWeights:
    """Flat numpy views of one transformer block's parameters."""

    __slots__ = (
        "attn_norm_w",
        "attn_norm_b",
        "ffn_norm_w",
        "ffn_norm_b",
        "wq",
        "wk",
        "wv",
        "wo",
        "w_gate",
        "w_up",
        "w_down",
    )


class CachedTransformer:
    """Numpy inference engine for a trained :class:`TransformerLM`."""

    def __init__(self, config: ModelConfig, state_dict):
        self.config = config
        self.rope = RopeTable(config.head_dim, config.max_seq_len, config.rope_theta)
        self._load(state_dict)

    @classmethod
    def from_module(cls, module):
        """Build directly from a training-graph model."""
        return cls(module.config, module.state_dict())

    # ------------------------------------------------------------------
    # Weight loading
    # ------------------------------------------------------------------
    def _load(self, state):
        config = self.config
        self.embed = np.asarray(state["embed.weight"])
        self.final_norm_w = np.asarray(state["final_norm.weight"])
        self.final_norm_b = state.get("final_norm.bias")
        if self.final_norm_b is not None:
            self.final_norm_b = np.asarray(self.final_norm_b)
        if config.tie_embeddings:
            self.lm_head = self.embed.T
        else:
            self.lm_head = np.asarray(state["lm_head.weight"])
        self.layers = []
        for i in range(config.n_layers):
            prefix = f"blocks.items.{i}."
            lw = _LayerWeights()
            lw.attn_norm_w = np.asarray(state[prefix + "attn_norm.weight"])
            lw.attn_norm_b = _optional(state, prefix + "attn_norm.bias")
            lw.ffn_norm_w = np.asarray(state[prefix + "ffn_norm.weight"])
            lw.ffn_norm_b = _optional(state, prefix + "ffn_norm.bias")
            lw.wq = np.asarray(state[prefix + "attn.wq.weight"])
            lw.wk = np.asarray(state[prefix + "attn.wk.weight"])
            lw.wv = np.asarray(state[prefix + "attn.wv.weight"])
            lw.wo = np.asarray(state[prefix + "attn.wo.weight"])
            if config.activation == "swiglu":
                lw.w_gate = np.asarray(state[prefix + "ffn.w_gate.weight"])
            else:
                lw.w_gate = None
            lw.w_up = np.asarray(state[prefix + "ffn.w_up.weight"])
            lw.w_down = np.asarray(state[prefix + "ffn.w_down.weight"])
            self.layers.append(lw)

    # ------------------------------------------------------------------
    # Elementwise helpers (match repro.nn.functional exactly)
    # ------------------------------------------------------------------
    def _norm(self, x, weight, bias):
        # Three calls per layer per decode step: the means are spelled as
        # the ufunc reduction ``np.mean`` wraps (sum along the axis, then
        # one true-divide by the count) and ``x**2`` as ``x * x`` — the
        # same float operations without the python shims.
        width = x.shape[-1]
        if self.config.norm == "rmsnorm":
            mean_square = np.add.reduce(x * x, axis=-1, keepdims=True) / width
            return x / np.sqrt(mean_square + 1e-6) * weight
        mean = np.add.reduce(x, axis=-1, keepdims=True) / width
        centered = x - mean
        variance = np.add.reduce(centered * centered, axis=-1, keepdims=True) / width
        return centered / np.sqrt(variance + 1e-5) * weight + bias

    def _ffn(self, lw, x, mm=np.matmul):
        if self.config.activation == "swiglu":
            gate = mm(x, lw.w_gate)
            gate = gate / (1.0 + np.exp(-gate)) * mm(x, lw.w_up)
            return mm(gate, lw.w_down)
        hidden = mm(x, lw.w_up)
        if self.config.activation == "gelu":
            c = math.sqrt(2.0 / math.pi)
            hidden = 0.5 * hidden * (1.0 + np.tanh(c * (hidden + 0.044715 * hidden**3)))
        else:
            hidden = np.maximum(hidden, 0.0)
        return mm(hidden, lw.w_down)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def new_cache(self, capacity=None):
        """Fresh empty KV cache sized to ``capacity`` (default max_seq_len)."""
        config = self.config
        capacity = config.max_seq_len if capacity is None else int(capacity)
        return KVCache(config.n_layers, config.n_heads, config.head_dim, capacity)

    # ------------------------------------------------------------------
    # Prefill
    # ------------------------------------------------------------------
    def prefill(self, tokens, cache, start_position=0):
        """Encode a prompt (or prompt continuation) and populate ``cache``.

        When ``cache`` already holds entries — a shared prefix adopted
        from the serving prefix cache, or an earlier chunk — the new
        tokens attend to the cached keys/values as well as to each other,
        so a chunked prefill reproduces the one-shot prefill exactly.
        All linear layers go through :func:`batch_matmul`, whose per-row
        accumulation order is independent of the number of rows; combined
        with the per-element (width-outer) einsum attention reductions,
        a token's hidden state — and the final logits — is bitwise
        identical whether its prompt was prefilled whole or continued
        from a cached prefix.  That invariance is what lets prefix-cache
        hits skip recomputation without changing a single generated
        token.

        Parameters
        ----------
        tokens:
            Prompt token ids, shape (L,).
        cache:
            The :class:`KVCache` to populate (must have room for L more
            entries); may already hold the tokens before ``start_position``
            (every layer at the same length).
        start_position:
            Absolute position of the first token (supports chunked
            prefill and prefix continuation).

        Returns
        -------
        StepResult
            Logits for the token *after* the prompt and per-layer causal
            attention matrices of shape (H, L, prior + L), where ``prior``
            is the pre-existing cache length (0 for a cold prefill, giving
            the square (H, L, L) causal matrices).
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError(f"tokens must be 1-D, got shape {tokens.shape}")
        length = tokens.shape[0]
        if length == 0:
            raise ValueError("empty prompt")
        config = self.config
        heads, head_dim = config.n_heads, config.head_dim
        prior_lengths = {cache[i].length for i in range(config.n_layers)}
        if len(prior_lengths) != 1:
            raise ValueError(
                f"ragged cache lengths {sorted(prior_lengths)}: prefill "
                "continuation needs every layer at the same length"
            )
        (prior,) = prior_lengths
        total = prior + length
        positions = np.arange(start_position, start_position + length)
        # Positions are the same in every layer: one table look-up (and
        # one range check) serves q and k of all of them.
        cos, sin = self.rope.at(positions)
        scale = 1.0 / math.sqrt(head_dim)

        x = self.embed[tokens]
        attention_records = []
        # Row i (absolute slot prior + i) sees every cached slot plus the
        # new slots up to itself.
        mask = (np.arange(total)[None, :] - prior) > np.arange(length)[:, None]
        for layer_index, lw in enumerate(self.layers):
            layer_cache = cache[layer_index]
            normed = self._norm(x, lw.attn_norm_w, lw.attn_norm_b)

            def split(mat):
                return mat.reshape(length, heads, head_dim).transpose(1, 0, 2)

            q = rotate_half(split(batch_matmul(normed, lw.wq)), cos, sin)
            k = rotate_half(split(batch_matmul(normed, lw.wk)), cos, sin)
            v = split(batch_matmul(normed, lw.wv))
            layer_cache.append_block(k, v, positions)
            keys = layer_cache.keys  # (H, total, d)
            values = layer_cache.values

            scores = np.einsum("hid,hjd->hij", q, keys) * scale
            scores = np.where(mask, -1e30, scores)
            attn = stable_softmax(scores, axis=-1)
            attention_records.append(attn)
            context = np.einsum("hij,hjd->hid", attn, values)
            merged = context.transpose(1, 0, 2).reshape(length, config.d_model)
            x = x + batch_matmul(merged, lw.wo)

            normed = self._norm(x, lw.ffn_norm_w, lw.ffn_norm_b)
            x = x + self._ffn(lw, normed, mm=batch_matmul)

        x = self._norm(x, self.final_norm_w, self.final_norm_b)
        logits = x[-1] @ self.lm_head
        return StepResult(logits, attention_records)

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def step(self, token, position, cache):
        """Decode one token at absolute ``position`` against ``cache``.

        The token's own kv pair is appended *before* attention (a token
        attends to itself), matching the paper's description of extending
        the KV cache with the current key-value vector.

        A batch-of-one :meth:`step_batch`; because the batched path's
        accumulation order is batch-size invariant, the returned logits
        are bitwise identical to the same step taken inside any batch.

        Returns a :class:`StepResult` whose ``attention`` entries are
        ``(H, l)`` rows over the (post-append) cache.
        """
        result = self.step_batch([int(token)], [int(position)], [cache])
        return StepResult(
            result.logits[0], [rows[0] for rows in result.attention]
        )

    def step_batch(self, tokens, positions, caches):
        """Decode one token for each of ``B`` sequences in lock-step.

        Parameters
        ----------
        tokens:
            ``(B,)`` token ids, one per sequence.
        positions:
            ``(B,)`` absolute positions, one per sequence (sequences are
            at independent points in their generations).
        caches:
            ``B`` per-sequence :class:`KVCache` objects (e.g. from
            :meth:`BatchedKVCache.select`); each sequence's kv pair is
            appended to its own cache before attention.

        All linear layers run as one stacked ``(B, D) @ (D, F)`` matmul —
        the weight matrix is read once for the whole batch, which is the
        batching win (attention remains per-sequence: every sequence owns
        a distinct, differently-sized cache).

        Returns a :class:`BatchStepResult`.
        """
        config = self.config
        heads, head_dim = config.n_heads, config.head_dim
        scale = 1.0 / math.sqrt(head_dim)
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        if tokens.ndim != 1 or tokens.shape[0] == 0:
            raise ValueError(f"tokens must be non-empty 1-D, got shape {tokens.shape}")
        batch = tokens.shape[0]
        if positions.shape != (batch,) or len(caches) != batch:
            raise ValueError(
                f"batch mismatch: {batch} tokens, {positions.shape[0]} "
                f"positions, {len(caches)} caches"
            )

        cos, sin = self.rope.at(positions[:, None])  # once for all layers

        x = self.embed[tokens]  # (B, D)
        attention_records = []
        for layer_index, lw in enumerate(self.layers):
            normed = self._norm(x, lw.attn_norm_w, lw.attn_norm_b)

            q = batch_matmul(normed, lw.wq).reshape(batch, heads, head_dim)
            k = batch_matmul(normed, lw.wk).reshape(batch, heads, head_dim)
            v = batch_matmul(normed, lw.wv).reshape(batch, heads, head_dim)
            q = rotate_half(q, cos, sin)
            k = rotate_half(k, cos, sin)

            contexts = np.empty((batch, config.d_model))
            layer_attn = []
            for b, cache in enumerate(caches):
                layer_cache = cache[layer_index]
                layer_cache.append(k[b], v[b], positions[b])
                keys = layer_cache.keys  # (H, l_b, d)
                values = layer_cache.values
                scores = np.einsum("hd,hld->hl", q[b], keys) * scale
                attn = stable_softmax(scores, axis=-1)  # (H, l_b)
                layer_attn.append(attn)
                contexts[b] = np.einsum("hl,hld->hd", attn, values).reshape(
                    config.d_model
                )
            attention_records.append(layer_attn)
            x = x + batch_matmul(contexts, lw.wo)

            normed = self._norm(x, lw.ffn_norm_w, lw.ffn_norm_b)
            x = x + self._ffn(lw, normed, mm=batch_matmul)

        x = self._norm(x, self.final_norm_w, self.final_norm_b)
        logits = batch_matmul(x, self.lm_head)
        return BatchStepResult(logits, attention_records)

    # ------------------------------------------------------------------
    # Speculative verification
    # ------------------------------------------------------------------
    def verify(self, tokens, cache, start_position):
        """Score ``L`` provisional tokens against ``cache`` in one pass.

        The speculative-decoding target pass: the caller feeds the last
        committed token followed by the draft's proposals, and gets back
        per-position next-token logits so acceptance can be decided for
        every proposal (plus the bonus token) from a single weight fetch.

        This is ``step_batch`` turned sideways: where ``step_batch``
        advances ``B`` sequences by one token each, ``verify`` advances
        one sequence by ``L`` tokens.  Every linear layer still runs as
        one stacked ``(L, D) @ (D, F)`` :func:`batch_matmul` — the
        multi-token amortization the co-sim prices — while attention
        runs per row over exactly that row's causal width, with the same
        kernels and therefore the same accumulation order as a
        sequential decode of the same tokens.  Combined with
        ``batch_matmul``'s row-count invariance, row ``i`` of the
        returned logits is **bitwise identical** to the logits of the
        ``i``-th sequential :meth:`step`; greedy acceptance is therefore
        exact, not approximate.  (A masked full-width softmax — the
        :meth:`prefill` formulation — is *not* used here: ``np.sum``'s
        pairwise reduction is only conditionally invariant to trailing
        masked zeros, and the acceptance rule needs equality
        unconditionally.)

        All ``L`` kv pairs are appended to ``cache`` provisionally; the
        caller rolls back the rejected suffix with ``cache.truncate``.

        Parameters
        ----------
        tokens:
            ``(L,)`` token ids: the pending committed token first, then
            the draft proposals.
        cache:
            The sequence's :class:`KVCache` (every layer at the same
            length, with room for ``L`` more entries per layer).
        start_position:
            Absolute position of ``tokens[0]``.

        Returns
        -------
        VerifyResult
            ``(L, V)`` logits plus per-layer ragged attention rows (see
            :class:`VerifyResult`).
        """
        config = self.config
        heads, head_dim = config.n_heads, config.head_dim
        scale = 1.0 / math.sqrt(head_dim)
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.shape[0] == 0:
            raise ValueError(f"tokens must be non-empty 1-D, got shape {tokens.shape}")
        length = tokens.shape[0]
        prior_lengths = {cache[i].length for i in range(config.n_layers)}
        if len(prior_lengths) != 1:
            raise ValueError(
                f"ragged cache lengths {sorted(prior_lengths)}: verify "
                "needs every layer at the same length"
            )
        positions = np.arange(start_position, start_position + length)
        cos, sin = self.rope.at(positions[:, None])  # once for all layers

        x = self.embed[tokens]  # (L, D)
        attention_records = []
        for layer_index, lw in enumerate(self.layers):
            normed = self._norm(x, lw.attn_norm_w, lw.attn_norm_b)

            q = batch_matmul(normed, lw.wq).reshape(length, heads, head_dim)
            k = batch_matmul(normed, lw.wk).reshape(length, heads, head_dim)
            v = batch_matmul(normed, lw.wv).reshape(length, heads, head_dim)
            q = rotate_half(q, cos, sin)
            k = rotate_half(k, cos, sin)

            layer_cache = cache[layer_index]
            contexts = np.empty((length, config.d_model))
            layer_attn = []
            for i in range(length):
                layer_cache.append(k[i], v[i], positions[i])
                keys = layer_cache.keys  # (H, prior + i + 1, d)
                values = layer_cache.values
                scores = np.einsum("hd,hld->hl", q[i], keys) * scale
                attn = stable_softmax(scores, axis=-1)  # (H, prior + i + 1)
                layer_attn.append(attn)
                contexts[i] = np.einsum("hl,hld->hd", attn, values).reshape(
                    config.d_model
                )
            attention_records.append(layer_attn)
            x = x + batch_matmul(contexts, lw.wo)

            normed = self._norm(x, lw.ffn_norm_w, lw.ffn_norm_b)
            x = x + self._ffn(lw, normed, mm=batch_matmul)

        x = self._norm(x, self.final_norm_w, self.final_norm_b)
        logits = batch_matmul(x, self.lm_head)
        return VerifyResult(logits, attention_records)


def _optional(state, key):
    value = state.get(key)
    return None if value is None else np.asarray(value)
