"""Unified serving resource manager: batch slots, KV blocks, and swap.

Before this module, the scheduler's dense and paged branches each did
their own slot/block bookkeeping inline in the admit/release paths.
:class:`KVResourceManager` centralizes every device resource a sequence
can hold — its batch slot, its :class:`~repro.serve.paging.BlockPool`
blocks, and the prefix-cache reservations that pin pool blocks across
requests — behind one ``can_admit / admit / fork / swap_out / swap_in /
retire`` surface (``retire`` also serves beam pruning and
recompute-preemption), for all four serving modes (dense/paged x
scheduler/engine).  Its request-to-cache map is the
one registry of device-resident KV: it builds each sequence's dense or
paged cache and returns paged blocks to the pool at retire and
swap-out.  It is also the only place that knows which storage layout is
in use: every block-demand, pool-capacity, fork-footprint and KV-usage
question the scheduler asks is answered here, with dense storage
answering "no blocks, unbounded pool".

Two admission regimes live here:

- ``preempt="off"`` (the default) keeps the one-way contract: admission
  *reserves worst case*.  A fixed pool must cover the newcomer's
  worst-case block demand plus every running sequence's outstanding
  reservation, so an admitted sequence can never fail an allocation —
  and a request whose worst case exceeds the whole pool is rejected.
- ``preempt="recompute"`` / ``preempt="swap"`` / ``preempt="model"``
  switch to *optimistic admission* (vLLM-style): a sequence admits as
  soon as the pool covers its immediate prefill need, far below the
  worst case when eviction budgets shrink sequences after prefill.
  Soundness comes from two-way scheduling: when the pool (or the batch)
  runs dry, a victim is preempted instead of the allocator crashing.

Preemption itself has two flavors, priced very differently by the
co-simulator:

- **recompute** (:meth:`KVResourceManager.retire`): drop all device
  state.  Re-admission re-prefills the prompt *plus the tokens generated
  so far* — pure compute, no transfer traffic.  Bit-exact for sequences
  without a KV budget (prefill and decode produce bitwise-identical KV
  entries and logits); under an eviction budget the rebuilt eviction
  state is derived from a fresh prefill of the extended prompt, which is
  deterministic but may diverge from the uninterrupted schedule.
- **swap** (:meth:`swap_out` / :meth:`swap_in`): page the sequence's KV
  slots to a modeled host pool and restore them bit-exactly later.
  Eviction state travels too: a policy whose entire per-sequence state is
  its slot-aligned vectors (``swap_restorable = True``, e.g. voting
  votes or H2O sums — the state the paper stores off-chip anyway) is
  snapshotted through the ``export_prefill_state`` /
  ``import_prefill_state`` hooks and re-imported onto a fresh instance at
  swap-in; any other policy keeps its live object host-side.  Either
  way the continuation is bit-identical to never having been preempted.

``preempt="model"`` is not a third mechanism: the scheduler picks
recompute *or* swap per victim from modeled cost (host-link transfer
cycles vs re-prefill cycles, via
:class:`repro.accel.simulator.AcceleratorSimulator`), using the same two
paths above.  The manager treats it exactly like the other two-way
modes.

The host pool is *modeled*: images are plain numpy copies, and the
scheduler records a :class:`~repro.serve.trace.SwapEvent` per transfer so
:class:`~repro.serve.cosim.ServingCoSimulator` can charge the bytes to
the hardware configuration's host link
(:attr:`~repro.accel.config.HardwareConfig.host_link_gb_s`).  Those
events (and the :class:`~repro.serve.trace.ForkEvent` rows) are the only
count of swaps and forks: the manager keeps no event counters, just the
pool, the host-pool occupancy and its peak.

Worked example — admit, swap out, swap in, retire against a fixed pool::

    >>> import numpy as np
    >>> from repro.config import tiny_config
    >>> from repro.serve.request import Request, SequenceState, transition
    >>> from repro.serve.resources import KVResourceManager
    >>> config = tiny_config()
    >>> manager = KVResourceManager(config, max_batch_size=2, paged=True,
    ...                             block_size=4, num_blocks=32,
    ...                             preempt="swap")
    >>> state = transition(
    ...     SequenceState(Request("r0", np.arange(6), max_new_tokens=4)),
    ...     "admit", prompt_tokens=np.arange(6), policy=None,
    ...     cache=manager.admit("r0", capacity=12))
    >>> for position in range(6):            # prefill writes 6 slots/layer
    ...     for layer in state.cache:
    ...         layer.append(np.ones((config.n_heads, config.head_dim)),
    ...                      np.ones((config.n_heads, config.head_dim)),
    ...                      position)
    >>> _ = transition(state, "prefill_done", logits=None, position=6)
    >>> used_before = manager.block_pool.num_used
    >>> image = manager.swap_out(state)       # blocks freed, bytes saved
    >>> _ = transition(state, "swap_out")
    >>> manager.block_pool.num_used, manager.slots_used, image.kv_slots
    (0, 0, 6)
    >>> image = manager.swap_in(state)        # bit-exact restore
    >>> _ = transition(state, "swap_in", status=image.resume_status,
    ...                cache=image.cache, policy=image.policy)
    >>> manager.block_pool.num_used == used_before, state.cache[0].length
    (True, 6)
    >>> manager.retire("r0"); manager.block_pool.num_free
    32
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import sequence_capacity
from repro.core.kv_cache import KVCache
from repro.serve.paging import BlockPool, PagedKVCache
from repro.serve.prefix_cache import PrefixCache

__all__ = ["KVResourceManager", "SwapImage", "PREEMPT_MODES"]

#: Valid ``preempt`` settings for the scheduler and the manager
#: (``"model"`` = per-victim recompute-vs-swap chosen by predicted cost).
PREEMPT_MODES = ("off", "recompute", "swap", "model")


class SwapImage:
    """Host-side copy of one swapped-out sequence's device state.

    Holds gathered (dense-layout) copies of every layer's keys, values
    and positions, plus the eviction-policy state — either per-layer
    snapshots from ``export_prefill_state`` (``policy_state``) or the
    retained live object (``policy``) when the policy is not
    ``swap_restorable``.  Copies are independent of the pool: blocks
    freed at swap-out may be handed to other sequences without
    corrupting the image.  Swap-in returns the consumed image carrying
    the restored ``cache`` and ``policy``; the scheduler hands them back
    to the sequence through the ``swap_in`` lifecycle transition.
    """

    __slots__ = (
        "resume_status",
        "capacity",
        "lengths",
        "keys",
        "values",
        "positions",
        "policy",
        "policy_state",
        "cache",
        "kv_slots",
        "blocks_out",
        "blocks_in",
    )

    def __init__(self, resume_status, capacity, lengths, keys, values, positions):
        #: Sequence status at swap-out (``RUNNING`` or ``PREFILLING``),
        #: the status swap-in resumes.
        self.resume_status = resume_status
        self.capacity = capacity
        #: Per-layer cache lengths at swap-out.
        self.lengths = lengths
        self.keys = keys
        self.values = values
        self.positions = positions
        #: The policy to resume with: the retained live object until
        #: swap-in, which rebuilds a snapshotted one here.
        self.policy = None
        self.policy_state = None
        #: The restored device cache (set by ``swap_in``).
        self.cache = None
        #: Per-layer KV slots moved (max over layers) — the trace unit.
        self.kv_slots = max(lengths) if lengths else 0
        #: Pool blocks the sequence dropped references to at swap-out.
        self.blocks_out = 0
        #: Pool blocks allocated at swap-in (set by ``swap_in``).
        self.blocks_in = 0


class KVResourceManager:
    """Owns every device resource the serving loop hands to sequences.

    Parameters
    ----------
    config:
        The served model's config (layer/head/dim shapes size the pool
        and the per-sequence caches).
    max_batch_size:
        Batch slots — the admission cap on concurrently resident
        sequences.
    paged, block_size, num_blocks, prefix_caching, prefix_cache_blocks, \
prefix_match_mode:
        The paged-memory knobs, exactly as on
        :class:`~repro.serve.scheduler.Scheduler` (which forwards them
        here).
    preempt:
        ``"off"`` (one-way scheduling, worst-case reservations),
        ``"recompute"`` or ``"swap"`` (two-way scheduling, optimistic
        admission).
    policy_factory:
        Zero-argument callable producing a fresh eviction-policy
        instance; needed at swap-in to rebuild a ``swap_restorable``
        policy from its snapshot.
    """

    def __init__(
        self,
        config,
        max_batch_size,
        paged=False,
        block_size=16,
        num_blocks=None,
        prefix_caching=True,
        prefix_cache_blocks=None,
        prefix_match_mode="token",
        preempt="off",
        policy_factory=None,
    ):
        if preempt not in PREEMPT_MODES:
            raise ValueError(
                f"preempt must be one of {PREEMPT_MODES}, got {preempt!r}"
            )
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.config = config
        self.max_batch_size = int(max_batch_size)
        self.preempt = preempt
        self.paged = bool(paged)
        self.policy_factory = policy_factory

        if self.paged:
            self.block_pool = BlockPool(
                config.n_heads, config.head_dim, block_size, num_blocks=num_blocks
            )
            self.prefix_cache = (
                PrefixCache(
                    block_size,
                    max_blocks=prefix_cache_blocks,
                    match_mode=prefix_match_mode,
                )
                if prefix_caching
                else None
            )
            if self.prefix_cache is not None:
                pool = self.block_pool
                self.block_pool.reclaimer = (
                    lambda needed: self.prefix_cache.reclaim(pool, needed)
                )
        else:
            self.block_pool = None
            self.prefix_cache = None

        self._admitted = {}  # request_id -> cache (device-resident)
        self._reservations = {}  # request_id -> worst-case pool blocks
        self._swapped = {}  # request_id -> SwapImage (host pool)

        # ---- KV usage (feeds ServingReport) ----
        #: Peak KV memory in slots (see :meth:`sample_usage`).
        self.peak_kv_slots = 0
        self._utilization_sum = 0.0
        self._utilization_rounds = 0

        # ---- host pool (feeds ServingReport) ----
        #: Host-pool occupancy in KV slots (all layers) and its peak.
        self.host_kv_slots = 0
        self.host_peak_kv_slots = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def preemptible(self):
        """Two-way scheduling active (``preempt`` != ``"off"``)."""
        return self.preempt != "off"

    @property
    def slots_used(self):
        """Batch slots held: one per device-resident sequence.  Slots a
        fork family holds for branches it has not forked yet are the
        scheduler's to set aside (it passes them to :meth:`can_admit`
        and :meth:`free_kv_capacity`)."""
        return len(self._admitted)

    @property
    def slots_free(self):
        return self.max_batch_size - self.slots_used

    @property
    def fixed_pool(self):
        """Whether block supply is bounded (paged with a fixed pool) —
        the only configuration where block demand can refuse an
        admission or force a preemption."""
        return self.paged and not self.block_pool.growable

    @property
    def free_blocks(self):
        """Free blocks of a fixed pool, read without reclaiming prefix
        entries; ``None`` when block supply is unbounded."""
        return self.block_pool.num_free if self.fixed_pool else None

    def free_kv_capacity(self, reserved_slots):
        """Free pool blocks when paged, free batch slots less the
        ``reserved_slots`` set aside for fork families when dense (the
        fleet router's tie-break)."""
        if self.paged:
            return self.block_pool.num_free
        return self.slots_free - reserved_slots

    @property
    def num_swapped(self):
        return len(self._swapped)

    # ------------------------------------------------------------------
    # Demand arithmetic
    # ------------------------------------------------------------------
    def worst_case_blocks(self, capacity):
        """Pool blocks a sequence's cache *table* can ever span (all
        layers, all owned) — the prefill-transient/steady-state peak."""
        if not self.paged:
            return 0
        per_layer = -(-capacity // self.block_pool.block_size)  # ceil
        return per_layer * self.config.n_layers

    def sequence_worst_blocks(self, prompt_length, max_new_tokens, budget):
        """Worst-case pool demand of one sequence over its whole life.

        The table peak (:meth:`worst_case_blocks` of the sequence
        capacity), plus — for a *budgeted* sequence while prefix caching
        is active — one copy-on-write block per full prompt block: the
        prefill registers its freshly written blocks in the prefix
        cache, so the very eviction that shrinks the sequence to budget
        must copy them first while the cache pins the originals.  (The
        seed's reservation missed this term, so a pool sized exactly to
        the table peak could die of ``BlockPoolExhausted`` inside the
        shrink; admission and rejection now both price it.)
        """
        worst = self.worst_case_blocks(
            sequence_capacity(prompt_length, max_new_tokens, budget)
        )
        if self.paged and self.prefix_cache is not None and budget is not None:
            worst += (
                prompt_length // self.block_pool.block_size
            ) * self.config.n_layers
        return worst

    def pool_shortfall(self, prompt_length, max_new_tokens, budget, branches=1):
        """``(needed, pool_blocks)`` when a request's worst-case demand —
        ``branches`` sequences resident at once — exceeds the whole fixed
        pool, else ``None``.

        The worst case is also the request's *actual* peak demand
        (prefill transient or budget steady state, plus the
        prefix-registration CoW a budgeted shrink performs), so such a
        request is unservable in every preempt mode.  A fork family must
        eventually hold every branch resident (branches are never
        half-admitted), so its threshold is the per-branch worst times
        the branch count — conservative, since paged branches share
        their prompt blocks, but a family beyond it could deadlock a
        one-way pool.
        """
        if not self.fixed_pool:
            return None
        worst = branches * self.sequence_worst_blocks(
            prompt_length, max_new_tokens, budget
        )
        pool_blocks = self.block_pool.num_blocks
        return (worst, pool_blocks) if worst > pool_blocks else None

    def blocks_for_rows(self, rows):
        """Pool blocks needed to append ``rows`` fresh slots in every
        layer of an empty cache (a prefill's immediate demand)."""
        if not self.paged or rows <= 0:
            return 0
        return -(-rows // self.block_pool.block_size) * self.config.n_layers

    def decode_block_demand(self, cache, budgeted, tokens=1):
        """Upper bound on pool blocks one decode round may claim for
        ``cache``: the fresh tail blocks that appending ``tokens`` slots
        per layer crosses into, plus — when eviction may run — one
        copy-on-write block per shared table block (adopted prefix
        blocks and own blocks pinned by the prefix cache alike).

        ``tokens`` is 1 for a plain decode step; a speculative round
        passes ``spec_k + 1`` to cover the full provisional verify
        window (the pending token plus every proposal) before any
        rollback frees the rejected suffix."""
        if not self.paged or tokens <= 0:
            return 0
        block_size = self.block_pool.block_size
        demand = sum(
            -(-(layer.length + tokens) // block_size)
            - (-(-layer.length // block_size))
            for layer in cache
        )
        if budgeted:
            demand += cache.shared_blocks
        else:
            # A fork branch's partial tail block may still be shared with
            # its siblings; the very first diverging append copies it
            # without crossing a block boundary, so the crossing term
            # alone misses it.  Zero in every non-fork flow (prefill
            # always diverges an adopted partial tail before decode).
            demand += getattr(cache, "shared_tail_blocks", 0)
        return demand

    def prefill_block_demand(self, cache, rows, budgeted, final):
        """Upper bound on pool blocks a prefill chunk of ``rows`` prompt
        tokens may claim for ``cache``: fresh tail blocks, CoW of every
        currently shared table block, and — for the *final* chunk of a
        budgeted prompt — CoW of the blocks this very chunk writes and
        registers before the shrink-to-budget eviction runs.

        A *partially* adopted block (radix-trie tail hit: the last
        attached block covered mid-block, still refcount-shared with the
        trie) needs no extra term: it is counted by ``shared_blocks``,
        and the chunk's first append at its non-zero offset is exactly
        the CoW that term prices."""
        if not self.paged or rows <= 0:
            return 0
        block_size = self.block_pool.block_size
        fresh = (rows // block_size + 1) * self.config.n_layers
        demand = fresh + cache.shared_blocks
        if budgeted and final:
            demand += fresh
        return demand

    def admission_block_demand(self, rows, prompt_length, budgeted, step_tokens=1):
        """Pool blocks a newly admitted sequence may claim in its
        admission round: its first ``rows``-row prefill chunk (of a
        ``prompt_length``-row effective prompt) into an empty cache,
        plus either the copy-on-write of every full prompt block the
        prefix cache shares (budgeted: the shrink-to-budget eviction
        copies them) or the fresh tail blocks the same-round first step
        of ``step_tokens`` appended slots crosses into (unbudgeted: no
        eviction frees slack).

        The copy-on-write term covers the whole prompt, not just the
        first chunk: a prefix hit can leave so few rows to compute that
        the first chunk is also the final one, and its shrink then
        copies the adopted blocks as well as the ones it registers."""
        if not self.paged:
            return 0
        block_size = self.block_pool.block_size
        demand = self.blocks_for_rows(rows)
        if not budgeted:
            fresh = -(-(rows + step_tokens) // block_size) - (
                -(-rows // block_size)
            )
            demand += fresh * self.config.n_layers
        elif self.prefix_cache is not None:
            demand += (prompt_length // block_size) * self.config.n_layers
        return demand

    def swap_in_blocks_needed(self, request_id):
        """Pool blocks required to page ``request_id``'s image back in."""
        if not self.paged:
            return 0
        image = self._swapped[request_id]
        block_size = self.block_pool.block_size
        return sum(-(-length // block_size) for length in image.lengths if length)

    def swap_resume_demand(self, request_id, step_tokens=1):
        """Pool blocks a swap-in admission may claim this round: the
        image itself plus the fresh tail blocks the resumed sequence's
        own first decode append crosses into, in every layer.

        ``step_tokens`` is 1 for a plain decode step; a speculating
        scheduler passes ``spec_k + 1`` because the resumed sequence may
        take a full provisional verify window in its re-admission
        round."""
        if not self.paged:
            return 0
        image = self._swapped[request_id]
        block_size = self.block_pool.block_size
        return self.swap_in_blocks_needed(request_id) + sum(
            -(-(length + step_tokens) // block_size)
            - (-(-length // block_size))
            for length in image.lengths
        )

    # ------------------------------------------------------------------
    # Admission checks
    # ------------------------------------------------------------------
    def has_blocks(self, needed):
        """Can the pool cover ``needed`` blocks right now?  The prefix
        cache is asked to shed idle entries first; a growable pool (and
        dense mode) always says yes."""
        if not self.fixed_pool:
            return True
        pool = self.block_pool
        if pool.num_free < needed and self.prefix_cache is not None:
            self.prefix_cache.reclaim(pool, needed - pool.num_free)
        return pool.num_free >= needed

    def outstanding_reservation(self):
        """Blocks held back for running sequences under one-way
        scheduling: each admitted sequence's worst case minus the blocks
        it already owns (growth and copy-on-write can claim the
        difference at any decode step)."""
        return sum(
            max(0, self._reservations[rid] - cache.owned_blocks)
            for rid, cache in self._admitted.items()
        )

    def can_admit(self, worst_blocks, immediate_blocks, slots=1):
        """Room for one more sequence?

        Needs ``slots`` free batch slots in every mode: the scheduler
        passes one for the candidate plus every slot a fork family sets
        aside for branches it has not forked yet (a root admission's own
        future branches included), and adds those branches' worst cases
        to ``worst_blocks``.  Block-wise, one-way scheduling
        (``preempt="off"``) demands the worst case on top of every
        running sequence's outstanding reservation — an admitted
        sequence can then never fail an allocation; two-way scheduling
        demands only the immediate prefill need, because a mid-run
        shortfall preempts a victim instead of crashing.
        """
        if self.slots_free < slots:
            return False
        if not self.fixed_pool:
            return True
        if self.preemptible:
            return self.has_blocks(immediate_blocks)
        return self.has_blocks(worst_blocks + self.outstanding_reservation())

    # ------------------------------------------------------------------
    # Lifecycle: admit / retire / preempt / resume
    # ------------------------------------------------------------------
    def admit(self, request_id, capacity, reserved_blocks=None):
        """Claim a batch slot and allocate a fresh cache; returns it.

        The guard is a physical-slot check: whether the admission leaves
        room for fork families' unforked branches is the scheduler's
        question (:meth:`can_admit`).  ``reserved_blocks`` is the
        worst-case demand held back from later one-way admissions
        (default: the capacity's table peak; the scheduler passes
        :meth:`sequence_worst_blocks` to include the prefix-registration
        CoW term)."""
        if self.slots_free <= 0:
            raise RuntimeError("admit with no free batch slot")
        cache = self._new_cache(request_id, capacity)
        self._reservations[request_id] = (
            self.worst_case_blocks(capacity)
            if reserved_blocks is None
            else reserved_blocks
        )
        return cache

    def _new_cache(self, request_id, capacity):
        """Build and register an empty cache for ``request_id``: blocks
        from the pool when paged, a dense slab otherwise."""
        self._check_unadmitted(request_id)
        config = self.config
        if self.paged:
            cache = PagedKVCache(self.block_pool, config.n_layers, capacity)
        else:
            cache = KVCache(config.n_layers, config.n_heads, config.head_dim, capacity)
        self._admitted[request_id] = cache
        return cache

    def _check_unadmitted(self, request_id):
        """A request id names at most one resident cache: registering a
        second would orphan the first (and, paged, leak its blocks)."""
        if request_id in self._admitted:
            raise KeyError(f"sequence {request_id!r} already admitted")

    def fork(self, parent_id, child_id):
        """Fork ``parent_id``'s cache into a new branch ``child_id``.

        The child claims a batch slot (a physical-slot check: the
        scheduler set the slot aside when it admitted the family),
        inherits the parent's worst-case block reservation, and adopts
        the parent's KV state:
        copy-on-write block sharing in paged mode (zero slots copied,
        every parent block's refcount bumped), a full slab copy dense.
        Divergence is handled downstream by the caches themselves
        (:meth:`~repro.serve.paging.PagedLayerKVCache.fork`); the manager
        only does the bookkeeping.  Returns the child cache.
        """
        self._check_unadmitted(child_id)
        if self.slots_free <= 0:
            raise RuntimeError("fork with no free batch slot")
        child = self._admitted[parent_id].fork()
        self._admitted[child_id] = child
        self._reservations[child_id] = self._reservations.get(parent_id, 0)
        return child

    def fork_footprint(self, cache):
        """``(blocks shared copy-on-write, KV slots physically copied)``
        by forking into ``cache`` — blocks when paged, slots (per-layer
        convention) when dense; the other is 0."""
        if self.paged:
            return cache.num_blocks, 0
        return 0, max((layer.length for layer in cache), default=0)

    def retire(self, request_id):
        """Free a sequence's slot, reservation and cache — at retirement,
        at beam pruning, and at recompute-preemption, whose victim
        re-admits later and re-prefills.  Paged blocks return to the pool
        (blocks still shared elsewhere just drop a refcount)."""
        cache = self._admitted.pop(request_id)
        self._reservations.pop(request_id, None)
        if self.paged:
            cache.release()

    def swap_out(self, state):
        """Page ``state``'s KV cache (and eviction state) to the host
        pool, freeing its slot and blocks; returns the :class:`SwapImage`.

        The image holds gathered copies, so the freed blocks can be
        reused by other sequences immediately.  Policy state goes with
        it: per-layer ``export_prefill_state`` snapshots when the policy
        is ``swap_restorable`` (the off-chip-vote-storage model), the
        live object otherwise.  ``state`` is only read: the ``swap_out``
        lifecycle transition drops its device state.
        """
        request_id = state.request_id
        cache = self._admitted[request_id]
        lengths = [layer.length for layer in cache]
        image = SwapImage(
            resume_status=state.status,
            capacity=cache[0].capacity,
            lengths=lengths,
            keys=[np.array(layer.keys, copy=True) for layer in cache],
            values=[np.array(layer.values, copy=True) for layer in cache],
            positions=[np.array(layer.positions, copy=True) for layer in cache],
        )
        if self.paged:
            image.blocks_out = cache.num_blocks
        policy = state.policy
        if policy is not None:
            if policy.swap_restorable:
                image.policy_state = [
                    policy.export_prefill_state(layer, lengths[layer])
                    for layer in range(len(lengths))
                ]
            else:
                image.policy = policy

        self.retire(request_id)
        self._swapped[request_id] = image

        self.host_kv_slots += sum(image.lengths)
        self.host_peak_kv_slots = max(self.host_peak_kv_slots, self.host_kv_slots)
        return image

    def swap_in(self, state):
        """Page a swapped sequence back onto the device: allocate a fresh
        cache, replay the saved slots, restore the eviction policy, and
        hand the slot back (a physical-slot check, as in :meth:`admit`).
        Returns the consumed :class:`SwapImage` with ``cache``,
        ``policy`` and ``blocks_in`` filled in; ``state`` is only read."""
        request_id = state.request_id
        image = self._swapped.pop(request_id)
        if self.slots_free <= 0:
            self._swapped[request_id] = image
            raise RuntimeError("swap_in with no free batch slot")
        cache = self._new_cache(request_id, image.capacity)
        for layer, length in enumerate(image.lengths):
            if length:
                cache[layer].append_block(
                    image.keys[layer], image.values[layer], image.positions[layer]
                )
        if image.policy is None and image.policy_state is not None:
            if self.policy_factory is None:
                raise RuntimeError(
                    "swap_in needs a policy_factory to rebuild a "
                    "swap_restorable policy from its snapshot"
                )
            policy = self.policy_factory()
            policy.reset()
            for layer, snapshot in enumerate(image.policy_state):
                policy.import_prefill_state(layer, snapshot, image.lengths[layer])
            image.policy = policy
        image.cache = cache
        self._reservations[request_id] = self.worst_case_blocks(image.capacity)
        if self.paged:
            image.blocks_in = cache.num_blocks

        self.host_kv_slots -= sum(image.lengths)
        return image

    # ------------------------------------------------------------------
    # KV usage
    # ------------------------------------------------------------------
    def sample_usage(self):
        """Fold the current KV footprint into the run's peak (and, paged,
        the mean block utilization).

        Dense slabs pin ``capacity`` slots per layer for a sequence's
        whole lifetime; paged storage pins only the blocks in use, so the
        pool's own high-water mark (updated at every allocation, i.e.
        including the transient prefill peak before eviction shrinks a
        sequence to budget) is the honest comparison point.
        """
        if self.paged:
            pool = self.block_pool
            self.peak_kv_slots = pool.peak_in_use * pool.block_size
            if pool.num_used:
                entries = sum(
                    sum(cache.lengths) for cache in self._admitted.values()
                )
                self._utilization_sum += entries / (
                    pool.num_used * pool.block_size
                )
                self._utilization_rounds += 1
        else:
            allocated = self.config.n_layers * sum(
                cache[0].capacity for cache in self._admitted.values()
            )
            self.peak_kv_slots = max(self.peak_kv_slots, allocated)

    def usage_report(self):
        """The :class:`~repro.serve.scheduler.ServingReport` fields that
        describe KV storage over the run (the paged extras only when
        paged)."""
        fields = {"peak_kv_slots": self.peak_kv_slots}
        if not self.paged:
            return fields
        pool = self.block_pool
        fields.update(
            paged=True,
            block_size=pool.block_size,
            peak_blocks=pool.peak_in_use,
            cow_copies=pool.cow_copies,
        )
        if self._utilization_rounds:
            fields["mean_block_utilization"] = (
                self._utilization_sum / self._utilization_rounds
            )
        prefix = self.prefix_cache
        if prefix is not None:
            fields.update(
                prefix_lookups=prefix.lookups,
                prefix_hits=prefix.hits,
                prompt_tokens_seen=prefix.tokens_seen,
                prefix_tokens_hit=prefix.tokens_hit,
            )
        return fields

    # ------------------------------------------------------------------
    # Prefix cache teardown
    # ------------------------------------------------------------------
    def clear_prefix_cache(self):
        """Drop every prefix-cache entry, returning its blocks to the
        pool (end-of-trace teardown)."""
        if self.prefix_cache is not None:
            self.prefix_cache.clear(self.block_pool)

    def __repr__(self):
        return (
            f"KVResourceManager(slots={self.slots_used}/{self.max_batch_size}, "
            f"paged={self.paged}, preempt={self.preempt!r}, "
            f"swapped={self.num_swapped})"
        )
