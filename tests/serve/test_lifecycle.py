"""The ``SequenceState`` lifecycle table.

Every field declares a lifetime, and :func:`repro.serve.request.transition`
applies each lifecycle row by the lifetimes it drops.  These tests hold
the table to a hand-written expectation of what every transition does
to every field, so a new field (or a changed row) has to be classified
here too.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro.serve as serve_pkg
from repro.serve.request import (
    DERIVED,
    DEVICE,
    FINISHED,
    HOST,
    IDENTITY,
    LIFECYCLE,
    PREEMPTED,
    PREFILLING,
    QUEUED,
    RECORD,
    RUNNING,
    SWAPPED,
    Request,
    SequenceState,
    prefix_cursor,
    transition,
)

LIFETIMES = {IDENTITY, RECORD, DEVICE, HOST, DERIVED}

KINDS = ("admit", "prefill_done", "swap_out", "swap_in", "recompute", "fork", "finish")

#: What each transition does to each field, in ``KINDS`` order:
#: ``k`` keeps the value, ``d`` drops it to the field default, ``s`` sets
#: the value the caller passes, ``c`` copies it (equal, not shared).
#: ``status`` is checked against ``TARGETS`` instead.
EXPECTED = {
    "request":           "k k k k k s k",
    "policy":            "s k d s d s d",
    "cache":             "s k d s d s d",
    "rng":               "k k k k k s k",
    "logits":            "k s k k d k d",
    "position":          "k s k k d k k",
    "tokens":            "k k k k k c k",
    "cache_lengths":     "k k k k k c k",
    "evictions":         "k k k k k c k",
    "admitted_at":       "k k k k k k k",
    "finished_at":       "k k k k k k s",
    "finish_reason":     "k k k k k k s",
    "first_token_round": "k k k k k k k",
    "prefilled":         "k k k k d k k",
    "prompt_tokens":     "s k k k d k k",
    "preemptions":       "k k k k k d k",
    "prefix_node":       "k k k k d k k",
    "prefix_tainted":    "k k k k d k k",
    "submit_index":      "k k k k k s k",
    "draft_cache":       "k k k k d k d",
    "family":            "k k k k k k k",
    "branch_index":      "k k k k k s k",
    "cum_logprob":       "k k k k k k k",
}

#: Legal source statuses and the resulting status of each transition
#: (``swap_in`` resumes the status its caller passes).
SOURCES = {
    "admit": (QUEUED, PREEMPTED),
    "prefill_done": (PREFILLING,),
    "swap_out": (PREFILLING, RUNNING),
    "swap_in": (SWAPPED,),
    "recompute": (PREFILLING, RUNNING),
    "fork": (RUNNING,),
    "finish": (RUNNING,),
}
TARGETS = {
    "admit": PREFILLING,
    "prefill_done": RUNNING,
    "swap_out": SWAPPED,
    "swap_in": RUNNING,
    "recompute": PREEMPTED,
    "fork": RUNNING,
    "finish": FINISHED,
}
STATUSES = (QUEUED, PREFILLING, RUNNING, SWAPPED, PREEMPTED, FINISHED)


def _sentinel(name):
    """A distinct non-default value per field."""
    return [name] if name in ("tokens", "cache_lengths", "evictions") else object()


def _loaded_state(status):
    """A state whose every field holds a distinct sentinel."""
    state = SequenceState(Request("r", np.arange(3), max_new_tokens=2))
    for f in dataclasses.fields(SequenceState):
        setattr(state, f.name, _sentinel(f.name))
    state.status = status
    return state


def _values(kind):
    values = {name: _sentinel(name) for name in LIFECYCLE[kind][3].split()}
    if kind == "swap_in":
        values["status"] = RUNNING
    return values


def test_every_field_declares_a_lifetime():
    for f in dataclasses.fields(SequenceState):
        assert f.metadata.get("lifetime") in LIFETIMES, (
            f"SequenceState.{f.name} has no lifetime"
        )


def test_expectation_covers_every_field_and_transition():
    names = {f.name for f in dataclasses.fields(SequenceState)}
    assert set(EXPECTED) == names - {"status"}
    assert set(LIFECYCLE) == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_transition_matches_expectation(kind):
    for source in SOURCES[kind]:
        state = _loaded_state(source)
        before = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
        values = _values(kind)
        after = transition(state, kind, **values)
        assert after.status == TARGETS[kind]
        defaults = {f.name: f.default for f in dataclasses.fields(SequenceState)}
        for name, row in EXPECTED.items():
            effect = row.split()[KINDS.index(kind)]
            value = getattr(after, name)
            if effect == "k":
                assert value is before[name], (kind, name)
            elif effect == "d":
                assert value == defaults[name], (kind, name)
            elif effect == "s":
                assert value is values[name], (kind, name)
            else:
                assert value == before[name] and value is not before[name], (kind, name)
        if kind == "fork":
            # The parent is untouched.
            assert after is not state
            for name, value in before.items():
                assert getattr(state, name) is value, name
        else:
            assert after is state


@pytest.mark.parametrize("kind", KINDS)
def test_illegal_source_or_values_refused(kind):
    for status in set(STATUSES) - set(SOURCES[kind]):
        with pytest.raises(ValueError, match=kind):
            transition(_loaded_state(status), kind, **_values(kind))
    source = SOURCES[kind][0]
    with pytest.raises(ValueError):
        transition(_loaded_state(source), kind, **_values(kind), bogus=1)
    if _values(kind):
        with pytest.raises(ValueError):
            transition(_loaded_state(source), kind)


class _Node:
    def __init__(self, detached):
        self.detached = detached


def test_prefix_cursor_drops_a_detached_node():
    state = SequenceState(Request("r", np.arange(3), max_new_tokens=2))
    attached = state.prefix_node = _Node(detached=False)
    assert prefix_cursor(state) is attached and state.prefix_node is attached
    state.prefix_node = _Node(detached=True)
    assert prefix_cursor(state) is None and state.prefix_node is None


def _attribute_writes(path):
    """``(object name, attribute)`` of every attribute assignment."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute):
                owner = target.value
                yield getattr(owner, "id", None), target.attr


def test_lifecycle_writes_go_through_transition():
    """No serve module assigns ``.status`` directly (``transition`` sets
    it), and the resource manager assigns no sequence-state attribute."""
    serve_dir = Path(serve_pkg.__file__).parent
    for path in serve_dir.glob("*.py"):
        writes = set(_attribute_writes(path))
        assert not {w for w in writes if w[1] == "status"}, path.name
    resources = set(_attribute_writes(serve_dir / "resources.py"))
    assert not {w for w in resources if w[0] == "state"}
