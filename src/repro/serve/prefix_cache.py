"""Cross-request prefix sharing: a token-level radix trie over KV blocks.

Serving traffic repeats prompt prefixes constantly — system prompts,
few-shot preambles, multi-turn conversations resubmitting their whole
history.  A token's key/value vectors depend only on the tokens before
it, and bitwise so: RoPE is applied at production time, the linear
layers are row-count invariant and the softmax is width-invariant (see
``repro.models.inference``), so a token's hidden state does not depend
on how its prompt was split into prefill chunks or what followed it.
The KV state of a shared prefix is therefore bitwise identical across
requests — exact, not only token-equivalent — and can be computed once.  The paged allocator (:mod:`repro.serve.paging`) makes
that state *shareable* (refcounted blocks, copy-on-write); this module
decides what stays resident and how much of a new prompt it covers.

Design
------
The cache is a radix trie keyed by token content:

- **Nodes are blocks.**  One node per registered KV block; its edge
  label is the block's ``block_size`` tokens (multi-token labels are the
  radix compression — the longest-prefix walk does one node hop per
  block, not per token, so lookup is O(L)).  Children are bucketed by
  first token and disambiguated by *full content comparison*, so two
  blocks whose labels merely hash alike can never be confused (the
  hash-chained predecessor registered new blocks under a
  content-mismatched resident on hash collision, pinning unreachable
  pool blocks until teardown).
- **Longest-prefix walk, token-level tail.**  :meth:`match` walks full
  blocks and then, for unbudgeted adopters, matches a *partial tail*:
  when the prompt diverges mid-block from a resident label, the hit
  still covers the common rows — the adopter attaches the divergent
  block too, and its first write past the covered rows copies the block
  via the pool's ordinary CoW path.  A request sharing all but one
  token of a resident prompt re-prefills exactly one row.
- **Policy snapshots at block boundaries.**  Each node can carry the
  eviction policy's exported per-layer slot state at its boundary
  (:meth:`~repro.core.policies.base.EvictionPolicy.export_prefill_state`
  — VEDA's votes, H2O's sums; rows ``< P`` of a causal prefill depend
  only on tokens ``< P``, so the snapshot is a pure function of the
  prefix).  A *budgeted* adopter needs those votes bit-exact, so its
  coverage stops at the deepest matched node whose snapshot is present;
  an *unbudgeted* adopter never consults the votes and takes the full
  token-level coverage, importing the deepest available snapshot and
  flagging itself *tainted* — its own later exports are impure and are
  registered as ``policy_state=None``, and a later pure registrant
  upgrades such missing snapshots in place.
- **LRU eviction.**  A lazy min-heap orders nodes by last use.  Under
  pool pressure (or past the ``max_blocks`` bound) :meth:`reclaim` pops
  the heap once — evictable leaves drop in LRU order, and a parent that
  loses its last child is re-queued so a single scan can drain a whole
  idle chain (the predecessor re-sorted the entire entry table per freed
  leaf).
- **One walk, two modes.**  :meth:`match` (an admission: counts the
  lookup, refreshes recency) and :meth:`probe` (a router's read-only
  question) run the same longest-prefix walk; only ``match`` records.

Worked example — full-block hit, then a partial mid-block tail::

    >>> from repro.serve.paging import BlockPool
    >>> from repro.serve.prefix_cache import PrefixCache
    >>> pool = BlockPool(n_heads=1, head_dim=2, block_size=4, num_blocks=8)
    >>> cache = PrefixCache(block_size=4)
    >>> root = cache.root(("voting",))
    >>> n1 = cache.insert(root, (1, 2, 3, 4), [pool.allocate()], None, pool)
    >>> n2 = cache.insert(n1, (5, 6, 7, 8), [pool.allocate()], None, pool)
    >>> hit = cache.match([1, 2, 3, 4, 5, 6, 7, 8, 9], ("voting",))
    >>> (len(hit.nodes), hit.tail_length, hit.shared_length)
    (2, 0, 8)
    >>> hit = cache.match([1, 2, 3, 4, 5, 6, 99, 99], ("voting",))
    >>> (len(hit.nodes), hit.tail_length, hit.shared_length)  # mid-block
    (1, 2, 6)
    >>> round(cache.token_hit_rate, 3)  # token-weighted, not per-lookup
    0.824
    >>> cache.clear(pool)
    >>> cache.num_entries, cache.num_blocks_held
    (0, 0)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

__all__ = ["PrefixCache", "PrefixMatch", "PrefixNode"]


class PrefixNode:
    """One registered KV block in the trie.

    The edge label ``tokens`` is the block's ``block_size`` prompt
    tokens; ``depth`` is the token depth at the *end* of the label.
    ``layer_block_ids[l]`` is the pool block holding layer ``l``'s KV
    for those rows (the trie holds one refcount per block).
    ``policy_state`` is the eviction policy's exported per-layer slot
    state at this boundary, or ``None`` when no registrant could
    produce a pure snapshot (see the module docstring on taint).
    """

    __slots__ = (
        "tokens",
        "parent",
        "children",
        "layer_block_ids",
        "policy_state",
        "depth",
        "last_used",
        "detached",
    )

    def __init__(self, tokens, parent, layer_block_ids, policy_state):
        self.tokens = tokens
        self.parent = parent
        self.children = {}  # first token -> [PrefixNode] (content-compared)
        self.layer_block_ids = layer_block_ids
        self.policy_state = policy_state
        self.depth = (0 if parent is None else parent.depth) + len(tokens)
        self.last_used = 0
        self.detached = False

    @property
    def is_root(self):
        return self.parent is None

    def __repr__(self):
        return (
            f"PrefixNode(depth={self.depth}, tokens={self.tokens}, "
            f"children={sum(len(b) for b in self.children.values())})"
        )


@dataclass
class PrefixMatch:
    """Result of one :meth:`PrefixCache.match` lookup.

    ``nodes`` are the fully-adopted blocks (root-to-leaf order);
    ``tail_node``/``tail_length`` describe a partial mid-block hit
    (``None``/``0`` when the divergence is block-aligned, or under
    budgeted/full-block matching).  ``parent`` is where the adopter's
    own registrations continue (the deepest adopted node, or the policy
    root on a miss).  ``policy_state`` is the per-layer snapshot at
    ``policy_length`` tokens — the deepest pure snapshot within the
    coverage; coverage beyond it marks the adopter :attr:`tainted`.
    """

    nodes: list = field(default_factory=list)
    tail_node: PrefixNode | None = None
    tail_length: int = 0
    parent: PrefixNode | None = None
    shared_length: int = 0
    policy_state: list | None = None
    policy_length: int = 0

    @property
    def tainted(self):
        """True when the covered rows outrun the imported snapshot: the
        adopter skipped observing rows it cannot reconstruct, so its own
        later exports are no longer pure functions of the prefix."""
        return self.shared_length > self.policy_length


def _common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class PrefixCache:
    """Radix-trie prefix cache over pool blocks (see module docstring).

    Parameters
    ----------
    block_size:
        Cache slots per block — the granularity of registration (edge
        labels) and of policy snapshots.
    max_blocks:
        LRU capacity bound, in pool blocks held by the trie; ``None``
        keeps every registered block resident.  Best-effort: blocks
        pinned by live adopters cannot be shed.
    match_mode:
        ``"token"`` (default) enables partial-tail hits for unbudgeted
        adopters; ``"block"`` restricts every match to full-block
        granularity — the predecessor cache's coverage, kept as the
        ablation baseline for the hit-rate comparison.
    """

    def __init__(self, block_size, max_blocks=None, match_mode="token"):
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if max_blocks is not None and max_blocks <= 0:
            raise ValueError(f"max_blocks must be positive, got {max_blocks}")
        if match_mode not in ("token", "block"):
            raise ValueError(
                f"match_mode must be 'token' or 'block', got {match_mode!r}"
            )
        self.block_size = int(block_size)
        self.max_blocks = max_blocks
        self.match_mode = match_mode
        self._roots = {}  # policy_key -> PrefixNode
        self._heap = []  # (last_used, tiebreak, node), lazy entries
        self._tiebreak = itertools.count()
        self._clock = 0
        self._num_entries = 0
        self._num_blocks_held = 0
        # ---- metrics ----
        self.lookups = 0
        self.hits = 0  # lookups with any coverage (legacy, per-lookup)
        self.tokens_seen = 0  # prompt tokens presented to match()
        self.tokens_hit = 0  # prompt tokens covered by adopted KV

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_entries(self):
        return self._num_entries

    @property
    def num_blocks_held(self):
        """Pool blocks referenced by the trie, over all layers."""
        return self._num_blocks_held

    @property
    def hit_rate(self):
        """Fraction of lookups with *any* coverage.  Coarse: a one-block
        hit on a thousand-token prompt counts the same as a full hit —
        prefer :attr:`token_hit_rate`."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def token_hit_rate(self):
        """Token-weighted hit rate: covered prompt tokens over prompt
        tokens presented (``prefix_tokens_hit / prompt_tokens_seen``)."""
        return self.tokens_hit / self.tokens_seen if self.tokens_seen else 0.0

    def root(self, policy_key):
        """The trie root for ``policy_key`` (one trie per eviction-policy
        state key: snapshots are only meaningful within one policy
        family/configuration, so differently-configured policies never
        share)."""
        node = self._roots.get(policy_key)
        if node is None:
            node = PrefixNode((), None, [], None)
            self._roots[policy_key] = node
        return node

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def match(self, prompt, policy_key, budgeted=False):
        """Longest-prefix lookup of ``prompt`` in the ``policy_key`` trie.

        At most ``len(prompt) - 1`` tokens are ever covered — the live
        prefill must compute at least the last row to produce next-token
        logits.  ``budgeted`` adopters additionally stop at the deepest
        matched node carrying a pure policy snapshot, at full-block
        granularity (the votes the shrink-to-budget eviction consults
        must be bit-exact).  Returns a :class:`PrefixMatch`; counters
        update whether or not anything matched.
        """
        return self._walk(prompt, policy_key, budgeted, record=True)

    def probe(self, prompt, policy_key, budgeted=False):
        """Read-only longest-prefix lookup: the token coverage
        :meth:`match` *would* report for ``prompt``, without touching
        the lookup clock, the hit counters, or LRU recency.

        A fleet router probes every replica's trie before placing a
        request; only the chosen replica's eventual :meth:`match` may
        count as a lookup or refresh recency, otherwise the probes
        themselves would perturb eviction order and metrics.  Returns
        the would-be ``shared_length`` in tokens (0 on a miss).
        """
        return self._walk(prompt, policy_key, budgeted, record=False).shared_length

    def _walk(self, prompt, policy_key, budgeted, record):
        """The longest-prefix walk behind :meth:`match` and :meth:`probe`.
        With ``record`` the lookup ticks the clock, counts in the hit
        metrics and refreshes the recency of every node it adopts;
        without it the trie is left exactly as found."""
        tokens = tuple(int(t) for t in prompt)
        if record:
            self._clock += 1
            self.lookups += 1
            self.tokens_seen += len(tokens)
            root = self.root(policy_key)
        else:
            root = self._roots.get(policy_key)
            if root is None:
                return PrefixMatch()
        limit = len(tokens) - 1
        block = self.block_size

        node = root
        nodes = []
        pos = 0
        tail_node = None
        tail_length = 0
        while pos < limit:
            bucket = node.children.get(tokens[pos])
            if not bucket:
                break
            label = tokens[pos : pos + block]
            full = None
            if pos + block <= limit:
                for child in bucket:
                    if child.tokens == label:
                        full = child
                        break
            if full is not None:
                nodes.append(full)
                node = full
                pos += block
                continue
            if self.match_mode == "token" and not budgeted:
                # Divergence (or the one-live-row cap) lands mid-block:
                # adopt the resident block with the longest common run.
                window = tokens[pos : min(pos + block, limit)]
                for child in bucket:
                    common = _common_prefix(child.tokens, window)
                    if common > tail_length:
                        tail_node, tail_length = child, common
            break

        if record:
            for walked in nodes:
                self._touch(walked)
            if tail_node is not None:
                self._touch(tail_node)
        if budgeted:
            # Coverage must end at a pure snapshot: intermediate nodes
            # without one are fine (a deeper snapshot is cumulative over
            # all earlier rows), but the chain is cut after the deepest
            # snapshot-bearing node.  (Budgeted walks never take a tail.)
            while nodes and nodes[-1].policy_state is None:
                nodes.pop()

        snapshot, snapshot_depth = None, 0
        for matched in reversed(nodes):
            if matched.policy_state is not None:
                snapshot = matched.policy_state
                snapshot_depth = matched.depth
                break

        shared = (nodes[-1].depth if nodes else 0) + tail_length
        if record and shared:
            self.hits += 1
            self.tokens_hit += shared
        return PrefixMatch(
            nodes=nodes,
            tail_node=tail_node,
            tail_length=tail_length,
            parent=nodes[-1] if nodes else root,
            shared_length=shared,
            policy_state=snapshot,
            policy_length=snapshot_depth,
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def insert(self, parent, tokens, layer_block_ids, policy_state, pool):
        """Register one freshly prefilled full block under ``parent``.

        ``tokens`` is the block's ``block_size`` prompt tokens,
        ``layer_block_ids`` the per-layer pool blocks holding its KV
        (the trie takes one refcount per block so the entry outlives the
        registering request), ``policy_state`` the per-layer snapshot at
        the block boundary — or ``None`` when the registrant is tainted.
        If a node with identical content already exists, the existing
        node is returned: no references are taken, and a missing
        snapshot is upgraded in place from a pure registrant.  Returns
        the node to use as the next block's parent.
        """
        if parent.detached:
            raise RuntimeError("insert under an evicted prefix node")
        tokens = tuple(int(t) for t in tokens)
        if len(tokens) != self.block_size:
            raise ValueError(
                f"edge label must be one full block "
                f"({self.block_size} tokens), got {len(tokens)}"
            )
        if policy_state is not None and any(s is None for s in policy_state):
            policy_state = None
        self._clock += 1

        bucket = parent.children.setdefault(tokens[0], [])
        for existing in bucket:
            if existing.tokens == tokens:
                # Content-identical block already resident: never chain
                # under mismatched content (the hash-collision leak of
                # the chained cache), never double-retain.
                self._touch(existing)
                if existing.policy_state is None and policy_state is not None:
                    existing.policy_state = policy_state
                return existing

        node = PrefixNode(tokens, parent, list(layer_block_ids), policy_state)
        for block_id in node.layer_block_ids:
            pool.retain(block_id)
        bucket.append(node)
        self._num_entries += 1
        self._num_blocks_held += len(node.layer_block_ids)
        self._touch(node)

        # Registration housekeeping: hold the LRU capacity bound
        # (best-effort — pinned blocks cannot shed).
        if self.max_blocks is not None:
            self.reclaim(pool, self._num_blocks_held - self.max_blocks)
        return node

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def reclaim(self, pool, blocks_needed):
        """Release at least ``blocks_needed`` idle blocks if possible
        (the pool's pressure callback).  One heap scan: evictable leaves
        drop in LRU order, a parent orphaned by its last child's drop is
        re-queued into the same scan, pinned entries are deferred and
        re-queued afterwards.  Returns the number of pool blocks
        actually freed."""
        freed = 0
        deferred = []
        heap = self._heap
        while heap and freed < blocks_needed:
            timestamp, tiebreak, node = heapq.heappop(heap)
            if node.detached or timestamp != node.last_used:
                continue  # stale: a fresher entry is (or was) in the heap
            if node.children:
                # Unevictable while it has children; _evict_node
                # re-queues it the moment the last child drops.
                continue
            if any(pool.refcount(b) > 1 for b in node.layer_block_ids):
                deferred.append((timestamp, tiebreak, node))
                continue
            freed += len(node.layer_block_ids)
            self._evict_node(node, pool)
        for item in deferred:
            heapq.heappush(heap, item)
        return freed

    def _evict_node(self, node, pool):
        """Drop one childless non-root node: release its blocks, unlink
        it, and re-queue the parent if this orphaned it."""
        assert not node.children and not node.is_root
        for block_id in node.layer_block_ids:
            pool.release(block_id)
        parent = node.parent
        bucket = parent.children[node.tokens[0]]
        bucket.remove(node)
        if not bucket:
            del parent.children[node.tokens[0]]
        node.detached = True
        self._num_entries -= 1
        self._num_blocks_held -= len(node.layer_block_ids)
        if not parent.is_root and not parent.children:
            # Parent re-queue: the freed leaf may expose a whole idle
            # chain — push the parent at its own (older) timestamp so
            # the *same* reclaim scan keeps draining it.
            heapq.heappush(
                self._heap, (parent.last_used, next(self._tiebreak), parent)
            )

    def _touch(self, node):
        node.last_used = self._clock
        heapq.heappush(self._heap, (node.last_used, next(self._tiebreak), node))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def clear(self, pool):
        """Release every held block and drop all entries (end-of-trace
        teardown; metrics counters are kept)."""
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            for bucket in node.children.values():
                stack.extend(bucket)
            node.children = {}
            if not node.is_root:
                node.detached = True
                for block_id in node.layer_block_ids:
                    pool.release(block_id)
        self._roots = {}
        self._heap = []
        self._num_entries = 0
        self._num_blocks_held = 0

    def __repr__(self):
        return (
            f"PrefixCache(block_size={self.block_size}, "
            f"entries={self._num_entries}, blocks={self._num_blocks_held}, "
            f"token_hit_rate={self.token_hit_rate:.3f})"
        )
