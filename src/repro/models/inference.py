"""Pure-numpy cached inference path (prefill + auto-regressive decode).

This mirrors the two LLM phases described in the paper's background
section: *prefilling* encodes the prompt in parallel and builds the KV
cache; *generation* processes one token at a time, attending to the cache
and extending it.  Per-row attention scores are surfaced to the caller so
eviction policies (H2O's accumulation, VEDA's voting) can observe exactly
the ``s'`` vectors the hardware voting engine sees.

Both phases run one forward over *segments* — runs of rows that continue
one :class:`~repro.core.kv_cache.KVCache`: a prefill chunk, a
speculative verify window, a decode step.  :meth:`CachedTransformer.step_batch`
advances ``B`` rows in lock-step, sharing one stacked matmul per linear
layer (the Orca observation modeled in ``experiments/batching.py`` —
weights are fetched once per batch).  Two invariances make the hidden
state exact, not only the tokens: :func:`batch_matmul` runs one BLAS gemv
per row, so a row's linear layers do not depend on how many rows share
the call, and :func:`stable_softmax` divides by a serial sum, so a
causally masked row equals the same row at its exact width.  A token's
logits, attention rows and cached keys/values are therefore bitwise the
same alone or in any batch, prefilled whole, in chunks or step by step —
the property the serving scheduler's equivalence guarantee rests on.

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
    "batch_matmul",
    "stable_softmax",
]


def batch_matmul(x, w):
    """``x @ w`` for ``x`` (B, D), ``w`` (D, F) — row-count invariant.

    BLAS gemm kernels change their micro-kernel (and thus the summation
    order of each output element) with the number of rows, so ``(X @ W)[i]``
    is *not* bitwise equal across batch sizes.  Stacking the rows as
    ``(B, 1, D)`` makes ``np.matmul`` issue one BLAS gemv per row instead:
    row ``i``'s result is the same vector-matrix product whatever the
    batch size, its position in the batch or its neighbours, so batched
    decode is bitwise identical to solo decode — the property a
    reproduction whose eviction decisions hinge on strict float
    comparisons needs.  Row-count invariance is the whole contract: the
    summation order inside a gemv is BLAS's, not a documented one, and
    ``tests/properties/test_property_model.py`` pins the invariance.  A
    fixed-order ``np.einsum("bd,df->bf")`` is invariant too but about
    twice as slow.
    """
    return np.matmul(x[:, None, :], w)[:, 0]


class StepResult:
    """Output of one forward: a decode step, a prefill, or a batched step.

    Attributes
    ----------
    logits:
        Next-token logits.  ``(V,)`` for :meth:`CachedTransformer.step`
        and :meth:`CachedTransformer.prefill` (whose logits are the last
        prompt token's, predicting the first generated token); ``(B, V)``
        for :meth:`CachedTransformer.step_batch`, row ``b`` for row ``b``.
    attention:
        Per-layer attention probabilities.  A decode step gives one
        ``(H, l)`` row per layer over the (post-append) cache; a prefill
        gives ``(H, L, prior + L)`` causal matrices.  A batched step
        gives per-layer lists of rows: ``attention[layer][b]`` is the
        ``(H, l_b)`` row of row ``b`` over its cache as it stood right
        after that row's append — ragged across ``b``, because every
        sequence has an independent cache length (and each row of a
        verify window sees one more slot than the last).
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

    def _ffn(self, lw, x):
        if self.config.activation == "swiglu":
            gate = batch_matmul(x, lw.w_gate)
            gate = gate / (1.0 + np.exp(-gate)) * batch_matmul(x, lw.w_up)
            return batch_matmul(gate, lw.w_down)
        hidden = batch_matmul(x, lw.w_up)
        if self.config.activation == "gelu":
            c = math.sqrt(2.0 / math.pi)
            hidden = 0.5 * hidden * (1.0 + np.tanh(c * (hidden + 0.044715 * hidden**3)))
        else:
            hidden = np.maximum(hidden, 0.0)
        return batch_matmul(hidden, lw.w_down)

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
        tokens attend to the cached keys/values as well as to each other.
        The prompt is one segment of the forward every decode row takes
        too, so a token's hidden state is exact, not only its token: its
        keys and values in every layer, its attention row and the final
        logits are bitwise the same whether the prompt was prefilled
        whole, in chunks, after a cached prefix, or by sequential
        :meth:`step` calls.  That is what lets prefix-cache hits and
        chunked prefill skip or split recomputation without changing a
        single generated token.

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
        prior_lengths = {cache[i].length for i in range(self.config.n_layers)}
        if len(prior_lengths) != 1:
            raise ValueError(
                f"ragged cache lengths {sorted(prior_lengths)}: prefill "
                "continuation needs every layer at the same length"
            )
        positions = np.arange(start_position, start_position + length)
        logits, attention = self._forward(
            tokens, positions, [(cache, slice(0, length))], slice(length - 1, None)
        )
        return StepResult(logits[0], [layer[0] for layer in attention])

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def step(self, token, position, cache):
        """Decode one token at absolute ``position`` against ``cache``.

        The token's own kv pair is appended *before* attention (a token
        attends to itself), matching the paper's description of extending
        the KV cache with the current key-value vector.

        A batch-of-one :meth:`step_batch`; because the batched path's
        linear layers are row-count invariant, the returned logits
        are bitwise identical to the same step taken inside any batch.

        Returns a :class:`StepResult` whose ``attention`` entries are
        ``(H, l)`` rows over the (post-append) cache.
        """
        result = self.step_batch([int(token)], [int(position)], [cache])
        return StepResult(result.logits[0], [rows[0] for rows in result.attention])

    def step_batch(self, tokens, positions, caches):
        """Decode one token for each of ``B`` rows in lock-step.

        Parameters
        ----------
        tokens:
            ``(B,)`` token ids, one per row.
        positions:
            ``(B,)`` absolute positions, one per row (sequences are at
            independent points in their generations).
        caches:
            ``B`` :class:`KVCache` objects (dense, or the paged drop-in
            the serving resource manager builds); each row's kv pair is
            appended to its cache before attention.  One cache may back
            several rows in any interleaving — a speculative verify
            window: its pending token and draft proposals at consecutive
            positions — which append and attend in row order.

        Every row's hidden state is exact, not only its token: logits,
        attention row and cached keys/values are bitwise those of a
        sequential :meth:`step` of its token (and of its row in a whole
        or chunked :meth:`prefill`).  All linear layers run as one
        stacked :func:`batch_matmul` call — on the modeled hardware the
        weight matrix is read once for the whole batch.

        Returns a :class:`StepResult` with ``(B, V)`` logits and
        per-row attention.
        """
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
        groups = {}  # by cache identity, each cache's rows in row order
        for b, cache in enumerate(caches):
            groups.setdefault(id(cache), (cache, []))[1].append(b)
        segments = [
            (cache, slice(rows[0], rows[0] + 1) if len(rows) == 1 else rows)
            for cache, rows in groups.values()
        ]
        logits, attention = self._forward(tokens, positions, segments, slice(None))
        records = []
        for layer_attention in attention:
            layer_rows = [None] * batch
            for (_, rows), attn in zip(groups.values(), layer_attention):
                prior = attn.shape[2] - len(rows)
                for i, b in enumerate(rows):
                    layer_rows[b] = attn[:, i, : prior + i + 1]
            records.append(layer_rows)
        return StepResult(logits, records)

    def _forward(self, tokens, positions, segments, logit_rows):
        """Run ``tokens`` at ``positions`` through every layer.

        ``segments`` lists ``(cache, rows)``: the rows (a slice — always,
        for one row — or an index list, in append order) that continue
        ``cache``: a prefill chunk, a verify window or one decode row.
        Everything but attention runs once over all rows; each segment
        appends its keys/values and attends causally over its cache.
        Returns the logits of ``logit_rows`` and, per layer, every
        segment's ``(H, n, W)`` attention over its ``W`` cached slots.
        """
        config = self.config
        batch = tokens.shape[0]
        heads, head_dim = config.n_heads, config.head_dim
        scale = 1.0 / math.sqrt(head_dim)
        # One table look-up (and range check, before any cache is
        # touched) serves q and k of every layer.
        cos, sin = self.rope.at(positions[:, None])

        spans = [(cache, rows, positions[rows]) for cache, rows in segments]
        x = self.embed[tokens]  # (N, D)
        attention = []
        for layer_index, lw in enumerate(self.layers):
            normed = self._norm(x, lw.attn_norm_w, lw.attn_norm_b)

            def project(w):
                return batch_matmul(normed, w).reshape(batch, heads, head_dim)

            # Heads-first (H, N, d) views: a segment is a slice of them.
            q = rotate_half(project(lw.wq), cos, sin).transpose(1, 0, 2)
            k = rotate_half(project(lw.wk), cos, sin).transpose(1, 0, 2)
            v = project(lw.wv).transpose(1, 0, 2)
            context = np.empty((heads, batch, head_dim))
            layer_attention = []
            for cache, rows, where in spans:
                layer_cache = cache[layer_index]
                n = where.shape[0]
                if n == 1:
                    layer_cache.append(k[:, rows.start], v[:, rows.start], where[0])
                else:
                    layer_cache.append_block(k[:, rows], v[:, rows], where)
                keys = layer_cache.keys  # (H, W, d)
                values = layer_cache.values
                scores = np.einsum("hid,hjd->hij", q[:, rows], keys) * scale
                if n > 1:  # row i (slot W - n + i) sees the slots up to itself
                    width = keys.shape[1]
                    causal = np.arange(width) > np.arange(width - n, width)[:, None]
                    np.copyto(scores, -1e30, where=causal)
                attn = stable_softmax(scores, axis=-1)
                layer_attention.append(attn)
                context[:, rows] = np.einsum("hij,hjd->hid", attn, values)
            attention.append(layer_attention)
            merged = context.transpose(1, 0, 2).reshape(batch, config.d_model)
            x = x + batch_matmul(merged, lw.wo)

            normed = self._norm(x, lw.ffn_norm_w, lw.ffn_norm_b)
            x = x + self._ffn(lw, normed)

        x = self._norm(x[logit_rows], self.final_norm_w, self.final_norm_b)
        return batch_matmul(x, self.lm_head), attention


def _optional(state, key):
    value = state.get(key)
    return None if value is None else np.asarray(value)
