"""Fork families: the records and decisions of multi-branch requests.

Fork families (``Request(n=)`` parallel sampling, ``Request(beam_width=)``
beam search) fork branches that adopt the parent's KV state —
copy-on-write blocks when paged, a slab copy when dense — and decode
through the scheduler's ordinary windows.  A family is admitted against
the slots (and, one-way, the worst-case blocks) of every branch it may
still fork, and while any branch is resident those branches' claims are
computed from the family's state wherever admission or the router reads
free capacity; the resource manager keeps no copy of them.

:class:`ForkFamilies` owns every family of one scheduler and answers
every question about them: the ``<family id>#<int>`` branch namespace,
the claims (:meth:`ForkFamilies.claims`), when a sampling family spawns,
which beam families are ready to advance and what one beam step keeps
(top ``width`` successors by one length-normalized score), when a
family stops being live, and the results (:meth:`ForkFamilies.samples_for`,
:meth:`ForkFamilies.beam_result_for`).  It decides; the
:class:`~repro.serve.scheduler.Scheduler` applies the effects — forking a
branch's device state, committing tokens, finishing pruned branches —
and prices the block demand of a beam advance itself.  Claims are in
batch slots and in the per-branch worst-case block counts the scheduler
passes in when a family opens, so this module needs nothing from the
scheduler or the resource manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.serve.request import FINISHED, PREFILLING, RUNNING

__all__ = ["ForkFamilies", "ForkFamily", "beam_score", "namespace_owner"]


def namespace_owner(request_id):
    """The family id (as a string) whose ``<family id>#<int>`` branch
    namespace holds ``request_id``, else ``None``."""
    family, sep, index = str(request_id).rpartition("#")
    return family if sep and index.isdigit() else None


def beam_score(raw, length, alpha):
    """The rank of a hypothesis with cumulative log-probability ``raw``
    over ``length`` tokens: ``raw / length ** alpha`` (GNMT length
    penalty).  ``alpha = 0`` — or an empty hypothesis — ranks by ``raw``
    itself, bit-identical to unnormalized scoring."""
    return raw if alpha == 0 or not length else raw / length**alpha


@dataclass
class ForkFamily:
    """Book-keeping for one multi-branch request (``n`` or ``beam_width``).

    The family's root sequence is ``branches[0]``; spawned branches are
    appended in creation order and keep ids ``<root_id>#<branch_index>``,
    so a branch's index is its position in ``branches``.
    Pruned/finished branches stay in ``branches`` (results are read from
    them); liveness is judged by their status.  A sampling family has
    spawned once it holds more than its root.
    """

    #: The originally submitted multi-branch :class:`Request`.
    request: object
    #: ``"sample"`` (``n > 1``) or ``"beam"`` (``beam_width > 1``).
    mode: str
    #: Target branch count (``n`` or ``beam_width``).
    width: int
    #: Every :class:`SequenceState` ever in the family, creation order.
    branches: list = field(default_factory=list)
    #: Worst-case pool blocks of one branch over its life (scales the
    #: family's block-side claim under one-way mode).
    branch_worst: int = 0


class ForkFamilies:
    """Every fork family of one scheduler, and the branch namespace.

    The per-round walks (:meth:`ready_beams`, :meth:`retire`) visit only
    the *live* families — those with a branch not yet finished — and
    :meth:`claims` only the families resident in the batch, so their
    cost never follows every family ever submitted, and each is one dict
    check when no family is live.
    """

    def __init__(self):
        self._families = {}  # family id (root request id) -> ForkFamily
        #: The families with a branch not yet finished, submission order.
        self._live = {}
        #: ``str`` of every family id, for the namespace rule.
        self._names = set()
        #: Namespace owners of every accepted ``<owner>#<int>`` id.
        self._owners = set()

    # ------------------------------------------------------------------
    # Namespace and membership
    # ------------------------------------------------------------------
    def clashes(self, request):
        """Whether ``request`` collides with a fork family's
        ``<family id>#<int>`` branch namespace: its id lies in a known
        family's, or it opens a family whose namespace already holds an
        accepted id.  The whole namespace is checked, not just
        ``1..width-1``: beam families mint branch ids past their width."""
        if namespace_owner(request.request_id) in self._names:
            return True
        return request.num_branches > 1 and str(request.request_id) in self._owners

    def check(self, request, max_batch_size, speculative):
        """Refuse (``ValueError``) a multi-branch ``request`` that cannot
        be served: wider than the batch, or under speculative decoding
        (a branch's provisional verify window would be shared
        copy-on-write with its siblings, so rollback could not stay
        per-branch exact)."""
        if request.num_branches <= 1:
            return
        if speculative:
            raise ValueError(
                "fork families (n > 1 / beam_width > 1) are incompatible "
                "with speculative decoding: a branch's provisional verify "
                "window would be shared copy-on-write with its siblings, "
                "so rollback could not stay per-branch exact"
            )
        if request.num_branches > max_batch_size:
            raise ValueError(
                f"request {request.request_id!r} needs "
                f"{request.num_branches} batch slots for its branches "
                f"but max_batch_size is {max_batch_size}"
            )

    def note(self, request_id):
        """Record an accepted id (a submission or a minted branch)."""
        owner = namespace_owner(request_id)
        if owner is not None:
            self._owners.add(owner)

    def open(self, state, branch_worst):
        """Open the family rooted at ``state``, a freshly accepted
        multi-branch submission whose branches each need up to
        ``branch_worst`` pool blocks over their life."""
        request = state.request
        family = ForkFamily(
            request=request,
            mode="sample" if request.n > 1 else "beam",
            width=request.num_branches,
            branches=[state],
            branch_worst=branch_worst,
        )
        self._families[request.request_id] = family
        self._live[request.request_id] = family
        self._names.add(str(request.request_id))

    def is_beam(self, state):
        """Whether ``state`` belongs to a beam-search family (its tokens
        come from the joint per-round advance, never from sampling)."""
        if state.family is None:
            return False
        return self._families[state.family].mode == "beam"

    def live(self, family):
        """The family's unfinished branches, creation order."""
        return [s for s in family.branches if s.status != FINISHED]

    # ------------------------------------------------------------------
    # Claims
    # ------------------------------------------------------------------
    def _unspawned(self, family, live):
        """Branches the family may still fork (the claim's size).

        Sample mode spawns exactly once, so after the spawn the answer
        is 0 regardless of later branch deaths; beam mode refills its
        width whenever a branch finishes, so every missing live branch
        is a potential future fork."""
        if family.mode == "sample" and len(family.branches) > 1:
            return 0
        return max(0, family.width - len(live))

    def claims(self, running, candidate=None):
        """``(batch slots, one-way worst-case blocks)`` held for the
        branches fork families may still fork.  A family holds them while
        any of its branches is in the ``running`` batch (prefilling or
        decoding), so no later admission can starve it of the room its
        forks were admitted against; an admission ``candidate``'s own
        family is counted too, since admitting it makes the family
        resident.  A family with no resident branch holds nothing, and
        its next (re-)admission secures the whole claim again.  The walk
        is over the batch, not over every queued family."""
        if not self._live:
            return 0, 0
        resident = {
            s.family
            for s in running
            if s.family is not None and s.status in (PREFILLING, RUNNING)
        }
        if candidate is not None and candidate.family is not None:
            resident.add(candidate.family)
        slots = blocks = 0
        for family_id in resident:
            family = self._families[family_id]
            unspawned = self._unspawned(family, self.live(family))
            slots += unspawned
            blocks += unspawned * family.branch_worst
        return slots, blocks

    # ------------------------------------------------------------------
    # Forks and beam steps
    # ------------------------------------------------------------------
    def spawn(self, state):
        """Siblings to fork off ``state`` now that its prefill is done:
        ``n - 1`` for the root of a sampling family that has not spawned
        yet, else 0 (spawning is a one-shot event, unlike beam's rolling
        forks).  Each sibling adopts the root's KV state and policy
        state and a *fresh* RNG seeded ``seed + branch_index`` — the
        root's own RNG, seeded ``seed`` and still unconsumed, makes
        branch 0 the root itself, so branch ``i`` is bit-identical to an
        independent request with seed ``seed + i``."""
        if state.family is None:
            return 0
        family = self._families[state.family]
        if family.mode != "sample" or len(family.branches) > 1:
            return 0
        return family.width - 1

    def mint(self, parent):
        """``(request, branch index)`` of the next branch forked off
        ``parent``: id ``<root id>#<index>``, seed ``seed + index``.  The
        branch joins the family through :meth:`adopt`."""
        family = self._families[parent.family]
        root = family.request
        index = len(family.branches)
        request = replace(
            root,
            request_id=f"{root.request_id}#{index}",
            seed=root.seed + index,
            n=1,
            beam_width=1,
        )
        self.note(request.request_id)
        return request, index

    def adopt(self, child):
        """Add the freshly forked ``child`` to its family."""
        self._families[child.family].branches.append(child)

    def ready_beams(self):
        """``(family, live branches)`` of every live beam family whose
        live branches are all decoding (a decoding branch always holds
        its pending logits).  A family with any branch mid-prefill,
        preempted or swapped stalls wholesale — beam selection is a joint
        decision over every branch's logits, so advancing a subset would
        change the search."""
        for family in self._live.values():
            if family.mode != "beam":
                continue
            live = self.live(family)
            if live and all(s.status == RUNNING for s in live):
                yield family, live

    def beam_step(self, family, live):
        """One beam round's decision: score every (branch, token)
        successor and keep the global top ``width`` by
        :func:`beam_score` of the cumulative log-probability.  Ties break
        deterministically by (score, branch creation order, token id).

        Returns ``(pruned, kept)``: the branches left with no successor,
        and ``(branch, [(raw score, token), ...])`` for every other
        branch in creation order — the first successor continues the
        branch, each further one is a fork.  The raw sum is what a
        branch accumulates; normalization is purely a rank-time
        transform."""
        width = family.width
        alpha = family.request.length_penalty
        candidates = []
        for order, state in enumerate(live):
            logits = state.logits
            peak = logits.max()
            logprobs = logits - (peak + np.log(np.exp(logits - peak).sum()))
            vocab = logprobs.shape[0]
            top = np.lexsort((np.arange(vocab), -logprobs))[: min(width, vocab)]
            length = state.num_generated + 1
            for token in top:
                raw = float(state.cum_logprob + logprobs[token])
                rank = beam_score(raw, length, alpha)
                candidates.append((rank, raw, order, int(token)))
        candidates.sort(key=lambda c: (-c[0], c[2], c[3]))
        by_branch = {}
        for _, raw, order, token in candidates[:width]:
            by_branch.setdefault(order, []).append((raw, token))
        pruned = [s for order, s in enumerate(live) if order not in by_branch]
        kept = [
            (s, by_branch[order])
            for order, s in enumerate(live)
            if order in by_branch
        ]
        return pruned, kept

    def retire(self, finished):
        """Drop the families the ``finished`` states leave with no live
        branch from the live set (their results stay readable)."""
        for state in finished:
            family = self._live.get(state.family)
            if family is not None and not self.live(family):
                del self._live[state.family]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def add_columns(self, rows, states):
        """Add each retired state's family, branch index and (beam
        branches) cumulative log-probability to its report row — once
        any family was opened, so a run without one keeps plain rows."""
        if not self._families:
            return
        for row, state in zip(rows, states):
            row["family"] = state.family
            row["branch"] = state.branch_index
            if self.is_beam(state):
                row["cum_logprob"] = state.cum_logprob

    def samples_for(self, request_id):
        """The generated token lists of every branch of a fork family,
        in branch order."""
        family = self._families.get(request_id)
        if family is None:
            raise KeyError(f"request {request_id!r} is not a fork family")
        branches = sorted(family.branches, key=lambda s: s.branch_index)
        return [list(s.tokens) for s in branches]

    def beam_result_for(self, request_id):
        """``(tokens, cum_logprob)`` of the best completed hypothesis of
        a beam family by :func:`beam_score` (pruned branches excluded;
        ties toward the earliest-created branch); the returned score is
        the raw cumulative log-probability of the winner."""
        family = self._families.get(request_id)
        if family is None or family.mode != "beam":
            raise KeyError(f"request {request_id!r} is not a beam request")
        done = [
            s
            for s in family.branches
            if s.status == FINISHED and s.finish_reason != "beam_pruned"
        ]
        if not done:
            raise KeyError(
                f"beam request {request_id!r} has no finished hypothesis yet"
            )
        alpha = family.request.length_penalty
        best = max(
            done,
            key=lambda s: (
                beam_score(s.cum_logprob, len(s.tokens), alpha),
                -s.branch_index,
            ),
        )
        return list(best.tokens), best.cum_logprob
