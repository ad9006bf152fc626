"""Voting-based KV cache eviction — the paper's core algorithm (Fig. 3).

Every processed token is a *voter*: its (head-averaged) attention row
``s'`` is compared against an adaptive threshold

    ``T(i) = a * mean(s') - b * std(s')``

and every position whose score falls below ``T(i)`` receives one vote.
When the engine needs to evict, the position with the **most** votes goes
(ties break to the earliest position).  Design points, each mapped to the
bias it fixes (paper Sec. III):

- *Item-count bias* → recent positions have had fewer chances to be voted
  against, so they are naturally preserved.
- *Criteria bias* → the threshold is recomputed per row from that row's
  own mean (always ``1/l`` for a softmax row) and standard deviation: a
  sparse row (high σ) lowers the threshold, an even row raises it.
- *Outlier bias* → votes are uniform (weight 1), so one giant attention
  score cannot immortalize a position.

Reserved prefix: the first ``reserved_length`` (R = 32 in the paper)
positions form the attention sink — they neither vote (rows with index
< R skip voting) nor receive votes, and they are excluded from eviction.

The hardware twin of this policy lives in
:mod:`repro.accel.voting_engine` (FP16 datapath, saturating UINT16 vote
counters) and is property-tested to make identical eviction decisions.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies.base import GENERATION, EvictionPolicy, register_policy

__all__ = ["VotingPolicy", "adaptive_threshold", "vote_mask"]


def _causal_row_sums(rows, offset):
    """Per-row sums of ``rows[i, : offset + i + 1]`` in one vector op.

    ``np.add.reduceat``'s accumulation grouping is a pure function of each
    segment (fixed unrolling from the segment start, no global pairwise
    blocking), so row ``i``'s sum is bitwise identical no matter the block
    width ``L`` the row is embedded in.  That width-invariance is what
    lets chunk-fed prefill voting (prefix-cache snapshots, block-boundary
    feeding) reproduce the one-shot square kernel exactly — see
    ``observe_continuation``.

    Segment bounds interleave ``[start_i, end_i)`` pairs, dropping the
    last row's end: that row's causal length is always exactly the block
    width (``offset + n_rows == width``), so its segment legitimately
    runs to the end of the flattened view — which keeps every index in
    range and the whole computation copy-free.  The discarded odd
    entries (zero-tail sums) are never empty segments: every non-final
    row's causal length is strictly below the width.
    """
    n_rows, width = rows.shape
    flat = rows.reshape(-1)
    starts = np.arange(n_rows, dtype=np.intp) * width
    bounds = np.empty(2 * n_rows - 1, dtype=np.intp)
    bounds[0::2] = starts
    if n_rows > 1:
        bounds[1::2] = (
            starts[:-1]
            + np.arange(offset + 1, offset + n_rows, dtype=np.intp)
        )
    return np.add.reduceat(flat, bounds)[0::2]


def adaptive_threshold(row, a=1.0, b=0.2):
    """The adaptive voting threshold ``T = a*mean - b*std`` for one row.

    ``row`` is a (head-aggregated) softmax attention row; its mean is
    ``1/len(row)`` by construction, so sparsity only enters through the
    standard deviation, exactly the dynamic criteria adjustment the paper
    describes.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.size == 0:
        raise ValueError("threshold of an empty attention row")
    return a * float(row.mean()) - b * float(row.std())


def vote_mask(row, positions, reserved_length, a=1.0, b=0.2):
    """Boolean vote vector for one attention row.

    Positions inside the reserved prefix never receive votes.  When the
    threshold is non-positive (extremely sparse row), only the minimum
    eligible score receives a vote, per the paper: "the threshold may
    theoretically drop below zero, in which case the algorithm identifies
    the minimum attention score and votes accordingly".
    """
    row = np.asarray(row, dtype=np.float64)
    positions = np.asarray(positions)
    if row.shape != positions.shape:
        raise ValueError(
            f"row shape {row.shape} != positions shape {positions.shape}"
        )
    eligible = positions >= reserved_length
    votes = np.zeros(row.shape[0], dtype=bool)
    if not np.any(eligible):
        return votes
    threshold = adaptive_threshold(row, a=a, b=b)
    if threshold > 0.0:
        votes = (row < threshold) & eligible
    else:
        masked = np.where(eligible, row, np.inf)
        votes[int(np.argmin(masked))] = True
    return votes


@register_policy
class VotingPolicy(EvictionPolicy):
    """The VEDA voting eviction policy.

    Parameters
    ----------
    n_layers:
        Number of transformer layers (votes are kept per layer).
    a, b:
        Threshold hyper-parameters; the paper reports ``a=1, b=0.2`` as
        generally effective.
    reserved_length:
        Attention-sink prefix R (paper: 32): those positions never vote,
        never receive votes, and are never evicted.
    head_reduction:
        How per-head rows are aggregated before voting; the paper
        aggregates and averages across heads ("voting operates
        layer-wise").
    """

    name = "voting"
    #: Vote counters are the only mutable state and live slot-aligned per
    #: layer, exactly what the snapshot hooks move — a swapped-out
    #: sequence's votes page out with its blocks and restore bit-exactly.
    swap_restorable = True

    def __init__(
        self,
        n_layers,
        a=1.0,
        b=0.2,
        reserved_length=32,
        head_reduction="mean",
    ):
        super().__init__(n_layers)
        if reserved_length < 0:
            raise ValueError("reserved_length must be non-negative")
        if head_reduction not in ("mean", "sum"):
            raise ValueError(f"unknown head_reduction {head_reduction!r}")
        self.a = float(a)
        self.b = float(b)
        self.reserved_length = int(reserved_length)
        self.head_reduction = head_reduction
        self.reset()

    def reset(self):
        # Vote counters live in one capacity-backed (n_layers, capacity)
        # array with an explicit logical length per layer, so the stacked
        # decode kernel accumulates every layer in one add and eviction
        # compacts in place (mirroring ``LayerKVCache.evict``) instead of
        # reallocating via ``np.delete``.  Slots in [length, capacity) are
        # always zero.
        self._votes = np.zeros((self.n_layers, 0), dtype=np.int64)
        self._lengths = [0] * self.n_layers

    def vote_counts(self, layer):
        """Slot-aligned vote counts for ``layer`` (copy, for diagnostics)."""
        self._check_layer(layer)
        return self._votes[layer, : self._lengths[layer]].copy()

    def _ensure_capacity(self, length):
        """Grow every layer's counters to at least ``length`` slots.

        Capacity doubles amortized so per-token growth during generation
        is O(1); newly exposed slots start at zero votes.
        """
        capacity = self._votes.shape[1]
        if length > capacity:
            grown = np.zeros(
                (self.n_layers, max(length, 2 * capacity)), dtype=np.int64
            )
            grown[:, :capacity] = self._votes
            self._votes = grown

    def _ensure_length(self, layer, length):
        """Layer ``layer``'s counter row, at least ``length`` slots long."""
        self._ensure_capacity(length)
        if length > self._lengths[layer]:
            self._lengths[layer] = length
        return self._votes[layer]

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    def observe(self, layer, attn, positions, phase):
        self._check_layer(layer)
        attn = np.asarray(attn)
        if attn.ndim != 2:
            raise ValueError(f"attn must be (H, l), got shape {attn.shape}")
        positions = np.asarray(positions)
        length = attn.shape[1]
        votes = self._ensure_length(layer, length)

        # The newest token (last slot) is the voter; rows produced inside
        # the reserved stage do not vote (Fig. 3, "Reserved Stage").
        voter_position = int(positions[-1])
        if voter_position < self.reserved_length:
            return

        if self.head_reduction == "mean":
            row = attn.mean(axis=0)
        else:
            row = attn.sum(axis=0)
        mask = vote_mask(
            row, positions, self.reserved_length, a=self.a, b=self.b
        )
        votes[:length] += mask.astype(np.int64)

    def observe_step(self, attention, positions, phase=GENERATION):
        """Layer-stacked decode voting: every layer's row in one pass.

        Equivalent to one :meth:`observe` call per layer (the base-class
        reference loop) — vote counters come out ``np.array_equal`` — but
        the ``(n_layers, H, l)`` stack is head-reduced, thresholded and
        accumulated with one numpy call each instead of one per layer.

        Numerics contract: every step performs the *same float operations
        in the same order* as the scalar path.  The head reduction is a
        sequential row add in both layouts; ``np.mean`` is
        ``np.add.reduce / n``; ``row.std()`` is sum/n → subtract → square
        → sum/n → sqrt; and a reduction along the last contiguous axis is
        row-independent (the same pairwise tree for the same ``l``), so
        each layer's threshold is bitwise the scalar one.  That only holds
        without padding, hence layers at different lengths (reachable
        only through direct API use) or non-float64 rows take the
        per-layer loop instead.
        """
        try:
            attn = np.array(attention)  # (n_layers, H, l)
            slots = np.array(positions)  # (n_layers, l)
        except ValueError:  # ragged layers
            return super().observe_step(attention, positions, phase)
        if (
            attn.ndim != 3
            or attn.dtype != np.float64
            or attn.shape[0] != self.n_layers
            or attn.shape[2] == 0
            or slots.shape != attn.shape[::2]
        ):
            return super().observe_step(attention, positions, phase)
        length = attn.shape[2]
        self._ensure_capacity(length)
        self._lengths = [max(length, known) for known in self._lengths]

        # Each layer's newest token (last slot) is its voter; rows produced
        # inside the reserved stage do not vote (Fig. 3, "Reserved Stage").
        eligible = slots >= self.reserved_length
        voters = eligible[:, -1]

        rows = np.add.reduce(attn, axis=1)
        if self.head_reduction == "mean":
            rows /= attn.shape[1]
        means = np.add.reduce(rows, axis=1, keepdims=True) / length
        deviations = rows - means
        np.multiply(deviations, deviations, out=deviations)
        stds = np.sqrt(np.add.reduce(deviations, axis=1, keepdims=True) / length)
        thresholds = self.a * means - self.b * stds

        mask = rows < thresholds
        mask &= eligible
        regular = voters & (thresholds[:, 0] > 0.0)
        if not regular.all():
            # Non-voters cast nothing; a voter whose threshold is not
            # positive votes for its minimum eligible score only.
            for layer in np.flatnonzero(~regular):
                mask[layer] = False
                if voters[layer]:
                    scores = np.where(eligible[layer], rows[layer], np.inf)
                    mask[layer, np.argmin(scores)] = True
        self._votes[:, :length] += mask

    def observe_block(self, layer, attn, positions, phase):
        """Vectorized prefill voting: all rows of a causal block at once.

        Equivalent to replaying ``observe`` over the block's growing row
        slices (the base-class reference implementation) but in a single
        numpy pass; see :meth:`_vote_rows` for the kernel and its
        numerics contract.
        """
        attn = np.asarray(attn)
        if attn.ndim != 3 or attn.shape[1] != attn.shape[2]:
            raise ValueError(f"attn must be (H, L, L), got shape {attn.shape}")
        self._vote_rows(layer, attn, np.asarray(positions))

    def observe_continuation(self, layer, attn, positions, phase):
        """Vectorized voting over the last ``R`` rows of a causal block.

        Same kernel as :meth:`observe_block` (which is the ``R == L``
        case); used by the paged serving path to feed prefill attention in
        block-sized chunks — either because earlier rows were observed in
        a previous chunk, or because their vote contributions arrived via
        :meth:`import_prefill_state` on a prefix-cache hit.
        """
        attn = np.asarray(attn)
        if attn.ndim != 3 or attn.shape[1] > attn.shape[2]:
            raise ValueError(f"attn must be (H, R<=L, L), got shape {attn.shape}")
        self._vote_rows(layer, attn, np.asarray(positions))

    def _vote_rows(self, layer, attn, positions):
        """Accumulate votes from causal rows ``L - R .. L - 1``.

        Per-row means and standard deviations are reduced with
        :func:`_causal_row_sums` over each row's true causal length, so a
        row's threshold — and therefore its votes — is bitwise identical
        whether the block arrives whole, in chunks, or embedded in a wider
        prompt (the prefix-cache snapshot contract).  Vote accumulation is
        integer, hence exact under any chunking.  The scalar ``observe``
        path may still differ from this kernel in the last ulp of a
        mean/std (its ``np.mean``/``np.std`` use pairwise reductions); a
        vote flips only if a score lies within that ulp of the threshold —
        never observed in practice, and the property suite asserts exact
        agreement across its seeded regimes.
        """
        self._check_layer(layer)
        n_rows, length = attn.shape[1], attn.shape[2]
        if positions.shape[0] != length:
            raise ValueError(
                f"positions length {positions.shape[0]} != block width {length}"
            )
        offset = length - n_rows
        votes = self._ensure_length(layer, length)

        if self.head_reduction == "mean":
            rows = attn.mean(axis=0)
        else:
            rows = attn.sum(axis=0)
        rows = rows.astype(np.float64, copy=False)

        # Row i is the attention of slot offset+i over slots 0..offset+i;
        # entries beyond are exactly zero (the causal-softmax contract:
        # -1e30 masking underflows to a hard 0.0).
        tri = np.tri(n_rows, length, offset, dtype=bool)
        counts = np.arange(offset + 1, length + 1, dtype=np.float64)
        means = _causal_row_sums(rows, offset) / counts
        deviations = rows - means[:, None]
        deviations *= tri
        np.multiply(deviations, deviations, out=deviations)
        stds = np.sqrt(_causal_row_sums(deviations, offset) / counts)
        thresholds = self.a * means - self.b * stds

        col_eligible = positions >= self.reserved_length
        # A row votes iff its own position cleared the reserved prefix
        # (its diagonal slot is then an eligible vote target, so a voter
        # always sees at least one eligible slot).
        voters = col_eligible[offset:]

        vote_matrix = rows < thresholds[:, None]
        vote_matrix &= tri
        vote_matrix &= col_eligible[None, :]
        fallback_rows = np.flatnonzero(voters & (thresholds <= 0.0))
        if fallback_rows.size:
            eligible = tri[fallback_rows] & col_eligible[None, :]
            inf_masked = np.where(eligible, rows[fallback_rows], np.inf)
            vote_matrix[fallback_rows] = False
            vote_matrix[
                fallback_rows, np.argmin(inf_masked, axis=1)
            ] = True
        vote_matrix[~voters] = False
        votes[:length] += vote_matrix.sum(axis=0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Prefix-cache state sharing
    # ------------------------------------------------------------------
    def export_prefill_state(self, layer, length):
        """Vote counts of slots ``[0, length)`` — at a prefill block
        boundary these are a pure function of the first ``length`` prompt
        tokens (later rows have not voted yet)."""
        self._check_layer(layer)
        if length > self._lengths[layer]:
            raise ValueError(
                f"export length {length} beyond observed {self._lengths[layer]}"
            )
        return self._votes[layer, :length].copy()

    def import_prefill_state(self, layer, state, length):
        """Seed vote counters from a snapshot, in place of observing the
        first ``length`` prefill rows."""
        self._check_layer(layer)
        state = np.asarray(state, dtype=np.int64)
        if state.shape != (length,):
            raise ValueError(f"state shape {state.shape} != ({length},)")
        votes = self._ensure_length(layer, length)
        votes[:length] = state

    def prefix_state_key(self):
        return (
            type(self).__name__,
            self.a,
            self.b,
            self.reserved_length,
            self.head_reduction,
        )

    def select_victim(self, layer, positions):
        self._check_layer(layer)
        positions = np.asarray(positions)
        length = positions.shape[0]
        votes = self._votes[layer]
        if votes.shape[0] < length:
            padded = np.zeros(length, dtype=np.int64)
            padded[: votes.shape[0]] = votes
            votes = padded
        masked = np.where(positions >= self.reserved_length, votes[:length], -1)
        # argmax returns the first maximal index, implementing the paper's
        # earliest-position tie-break.  Counters are never negative, so a
        # -1 maximum means no slot was eligible.
        slot = int(masked.argmax())
        return slot if masked[slot] >= 0 else length - 1

    def on_evict(self, layer, slot):
        self._check_layer(layer)
        length = self._lengths[layer]
        if not 0 <= slot < length:
            raise IndexError(f"evict slot {slot} out of range [0, {length})")
        votes = self._votes[layer]
        votes[slot : length - 1] = votes[slot + 1 : length]
        votes[length - 1] = 0
        self._lengths[layer] = length - 1
