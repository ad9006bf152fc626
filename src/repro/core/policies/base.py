"""Eviction policy interface and registry.

A policy observes the attention-score stream the model produces (exactly
the ``s'`` vectors the VEDA voting engine taps in hardware, paper Fig. 7)
and, when the generation engine asks, names the cache slot to evict.

Contract
--------
State is kept *slot-aligned* per layer: slot ``j`` of the policy's internal
vectors corresponds to slot ``j`` of the layer's :class:`LayerKVCache`.
The engine guarantees the following call order:

1. ``observe_step(attention, positions, phase)`` once per decoded token,
   covering every layer — ``attention[layer]`` is the ``(H, l)`` attention
   probabilities over that layer's *current* cache (the newest token
   occupies the last slot), ``positions[layer]`` the absolute positions of
   its slots.  The default implementation makes one
   ``observe(layer, attn, positions, phase)`` call per layer, so
   ``observe`` remains the reference semantics and ``observe_step`` a
   vectorization hook (``VotingPolicy`` scores all layers in one stacked
   pass).  During prefill the engine instead makes one
   ``observe_block(layer, attn, positions, phase)`` call per layer with
   the full ``(H, L, L)`` causal matrix (``observe_continuation`` for a
   chunk); the default implementation replays it through ``observe`` row
   by row — the same reference/hook relation.
2. per layer, zero or more ``select_victim(layer, positions)`` /
   ``on_evict(layer, slot)`` pairs, one per eviction, until the cache is
   within budget.  ``on_evict`` must compact slot-aligned state the same
   way the cache compacts (delete slot, shift tail left).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["EvictionPolicy", "register_policy", "make_policy", "available_policies"]

_REGISTRY = {}

#: Phase tags passed to ``observe``.
PREFILL = "prefill"
GENERATION = "generation"


class EvictionPolicy(ABC):
    """Base class for KV-cache eviction policies."""

    #: Registry name; subclasses override.
    name = "base"

    #: Whether this policy's observation state may be reconstructed from a
    #: prefix-cache snapshot (:meth:`export_prefill_state` /
    #: :meth:`import_prefill_state`).  The base default (no-op ``observe``)
    #: is trivially shareable; a subclass that overrides ``observe`` with
    #: real state MUST either implement the export/import pair or set this
    #: to ``False``, otherwise a prefix-cache hit would silently drop the
    #: prefix rows' contributions and change eviction decisions.
    prefix_shareable = True

    #: Whether this policy's *entire* per-sequence state can be rebuilt on
    #: a fresh instance from the snapshot hooks alone
    #: (:meth:`export_prefill_state` / :meth:`import_prefill_state` at the
    #: current cache length).  The KV swap path
    #: (:class:`repro.serve.resources.KVResourceManager`) uses this to
    #: decide how a preempted sequence's eviction state is restored:
    #: ``True`` pages a per-layer snapshot out with the blocks and imports
    #: it on swap-in (modeling the paper's off-chip vote storage);
    #: ``False`` keeps the live policy object host-side instead.  Only set
    #: ``True`` when the slot-aligned vectors are the *only* mutable state
    #: — a policy with a hidden RNG stream or step counter would silently
    #: diverge after a swap.  Conservative default: ``False``.
    swap_restorable = False

    def __init__(self, n_layers):
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        self.n_layers = int(n_layers)

    def reset(self):
        """Clear per-sequence state (called before each new sequence)."""

    def observe(self, layer, attn, positions, phase):
        """Consume one token's attention row for ``layer``.

        Default: ignore (policies like StreamingLLM are score-free).
        """

    def observe_step(self, attention, positions, phase=GENERATION):
        """Consume one decoded token's attention rows for every layer.

        ``attention[layer]`` is the ``(H, l)`` row ``step_batch``/``verify``
        return for that layer, ``positions[layer]`` the ``(l,)`` slot
        positions of the layer's cache.  Semantically equivalent to one
        :meth:`observe` call per layer in layer order — which is exactly
        what this default does.  Subclasses may override with a kernel
        that scores all layers at once (see ``VotingPolicy.observe_step``);
        the contract is that the resulting policy state is identical to
        the per-layer loop.
        """
        for layer, (attn, slots) in enumerate(zip(attention, positions, strict=True)):
            self.observe(layer, attn, slots, phase)

    def observe_block(self, layer, attn, positions, phase):
        """Consume a block of causal attention rows for ``layer`` at once.

        ``attn`` is ``(H, L, L)`` causal attention (row ``i`` attends to
        slots ``0..i``; entries above the diagonal are zero), ``positions``
        the ``(L,)`` absolute positions of the slots, in ascending order.
        Semantically equivalent to calling :meth:`observe` once per row
        with the growing ``(H, i+1)`` slices — which is exactly what this
        default does.  Subclasses may override with a vectorized
        implementation (see ``VotingPolicy.observe_block``); the contract
        is that the resulting policy state is identical to the row-by-row
        replay.
        """
        attn = np.asarray(attn)
        if attn.ndim != 3 or attn.shape[1] != attn.shape[2]:
            raise ValueError(f"attn must be (H, L, L), got shape {attn.shape}")
        positions = np.asarray(positions)
        if positions.shape[0] != attn.shape[1]:
            raise ValueError(
                f"positions length {positions.shape[0]} != block length "
                f"{attn.shape[1]}"
            )
        for row in range(positions.shape[0]):
            self.observe(layer, attn[:, row, : row + 1], positions[: row + 1], phase)

    def observe_continuation(self, layer, attn, positions, phase):
        """Consume the *last* ``R`` rows of a causal block over ``L`` slots.

        ``attn`` is ``(H, R, L)`` with ``R <= L``: row ``r`` is the
        attention of the slot at index ``L - R + r`` over slots
        ``0..L-R+r`` (entries beyond are zero), ``positions`` the ``(L,)``
        absolute positions of all slots.  This is how a chunked prefill
        (prefix-cache hit, or block-boundary snapshotting) feeds the
        policy: the earlier rows were observed previously — or their
        effect imported via :meth:`import_prefill_state`.  The square case
        ``R == L`` is semantically ``observe_block``.  Default: replay the
        new rows through :meth:`observe`, exactly like ``observe_block``'s
        row-by-row reference replay.
        """
        attn = np.asarray(attn)
        if attn.ndim != 3 or attn.shape[1] > attn.shape[2]:
            raise ValueError(f"attn must be (H, R<=L, L), got shape {attn.shape}")
        positions = np.asarray(positions)
        if positions.shape[0] != attn.shape[2]:
            raise ValueError(
                f"positions length {positions.shape[0]} != slot count "
                f"{attn.shape[2]}"
            )
        offset = attn.shape[2] - attn.shape[1]
        for row in range(attn.shape[1]):
            stop = offset + row + 1
            self.observe(layer, attn[:, row, :stop], positions[:stop], phase)

    def export_prefill_state(self, layer, length):
        """Snapshot slot-aligned observation state for slots ``[0, length)``.

        Called at a prefill block boundary, after the rows ``< length``
        have been observed and before any later row — so the snapshot is a
        pure function of the first ``length`` prompt tokens and can be
        keyed by them in a prefix cache.  ``None`` (the default) means
        "nothing to restore", which is only correct for policies whose
        ``observe`` is a no-op.
        """
        return None

    def import_prefill_state(self, layer, state, length):
        """Restore a snapshot taken by :meth:`export_prefill_state` onto a
        freshly reset policy, in place of observing the first ``length``
        prefill rows."""
        if state is not None:
            raise NotImplementedError(
                f"{type(self).__name__} cannot import prefill state"
            )

    def prefix_state_key(self):
        """Hashable identity of this policy's observation semantics.

        Prefix-cache snapshots are only reused between requests whose
        policies share this key; subclasses with hyper-parameters that
        change what ``observe`` accumulates must fold them in.
        """
        return type(self).__name__

    @abstractmethod
    def select_victim(self, layer, positions):
        """Return the cache slot index to evict for ``layer``.

        ``positions`` are the absolute positions of the occupied slots in
        ascending order.  Must be side-effect free; the engine follows up
        with :meth:`on_evict` once the eviction is committed.
        """

    def on_evict(self, layer, slot):
        """Compact slot-aligned state after slot ``slot`` was evicted."""

    def _check_layer(self, layer):
        if not 0 <= layer < self.n_layers:
            raise IndexError(f"layer {layer} out of range [0, {self.n_layers})")


def register_policy(cls):
    """Class decorator adding a policy to the name registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate policy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def make_policy(name, n_layers, **kwargs):
    """Instantiate a registered policy by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](n_layers=n_layers, **kwargs)


def available_policies():
    """Sorted list of registered policy names."""
    return sorted(_REGISTRY)
