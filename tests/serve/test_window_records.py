"""One trace record per decode window.

Every running sequence adds one window — its pending token plus any
draft proposals — to the round's one ``step_batch``, and the round trace
records each window as one :class:`~repro.serve.trace.DecodeEvent`.  The
co-simulator prices ``rows`` entries per event, so the rows the trace
records in a round must be exactly the rows that round's forward
computed: on a speculative trace whose plain and verify windows share
rounds, on a plain trace and on a beam trace.
"""

import numpy as np
import pytest

from repro.core.policies.voting import VotingPolicy
from repro.serve import Request, Scheduler


class RowCounter:
    """Delegates to a model and logs ``(round, rows)`` for every
    ``step_batch`` call."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.scheduler = None
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def step_batch(self, tokens, positions, caches):
        self.calls.append((self.scheduler.round_index, len(tokens)))
        return self._model.step_batch(tokens, positions, caches)


def requests_for(model, trace_kind):
    rng = np.random.default_rng(5)
    requests = []
    for i in range(5):
        fields = {}
        if trace_kind == "beam":
            fields["beam_width"] = 2
        elif i % 2:
            # Over budget from the first decode on: never speculates.
            fields["budget"] = 12
        requests.append(
            Request(
                f"r{i}",
                rng.integers(0, model.config.vocab_size, size=int(rng.integers(14, 20))),
                max_new_tokens=int(rng.integers(6, 11)),
                arrival_time=i // 2,
                seed=i,
                **fields,
            )
        )
    return requests


@pytest.mark.parametrize("trace_kind", ["self_draft", "plain", "beam"])
@pytest.mark.parametrize("paged", [False, True])
def test_trace_records_the_rows_the_forward_computed(model, trace_kind, paged):
    target = RowCounter(model)
    scheduler = Scheduler(
        target,
        policy_factory=lambda: VotingPolicy(model.config.n_layers, reserved_length=2),
        max_batch_size=4,
        paged=paged,
        block_size=4,
        draft_model=model if trace_kind == "self_draft" else None,
        spec_k=3,
    )
    target.scheduler = scheduler
    for request in requests_for(model, trace_kind):
        scheduler.submit(request)
    scheduler.run()

    rounds = [call_round for call_round, _ in target.calls]
    assert len(rounds) == len(set(rounds)), "more than one forward in a round"
    for record in scheduler.trace:
        ids = [w.request_id for w in record.decodes]
        assert len(ids) == len(set(ids)), f"round {record.round_index}: {ids}"
    recorded = {
        record.round_index: sum(w.rows for w in record.decodes)
        for record in scheduler.trace
        if record.decodes
    }
    assert recorded == dict(target.calls)
    if trace_kind == "self_draft":
        # Plain and verify windows share rounds.
        assert any(
            any(w.proposed for w in record.decodes)
            and any(not w.proposed for w in record.decodes)
            for record in scheduler.trace
        )
    else:
        windows = [w for record in scheduler.trace for w in record.decodes]
        assert windows and all(w.rows == 1 and not w.proposed for w in windows)
