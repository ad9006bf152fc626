"""The two stage units the scheduler calls: fork families and trie prefill.

``repro.serve.families`` decides everything about fork families and
``repro.serve.prefill`` runs a prompt range through the prefix trie; the
scheduler calls both and applies the effects.  These tests hold the
boundary: neither unit imports the scheduler, the family unit needs
nothing from the resource manager and writes no sequence state, and the
prefill unit writes only a sequence's prefill cursor.  The last test
holds ``Scheduler.submit`` to a cost that does not grow with the
requests already served.
"""

import ast
from pathlib import Path

import numpy as np

import repro.serve as serve_pkg
from repro.serve import Request, Scheduler, families
from repro.serve.families import beam_score

SERVE = Path(serve_pkg.__file__).parent


def _tree(name):
    return ast.parse((SERVE / name).read_text())


def _imported_modules(name):
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def _attribute_writes(name):
    """``(owner name, attribute)`` of every attribute assignment."""
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            # ``a = b.c = value`` chains and tuple targets included.
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
                    yield getattr(leaf.value, "id", None), leaf.attr


def test_units_import_neither_scheduler_nor_manager():
    for name in ("families.py", "prefill.py"):
        assert "repro.serve.scheduler" not in set(_imported_modules(name)), name
    assert "repro.serve.resources" not in set(_imported_modules("families.py"))


def test_family_unit_writes_only_its_own_records():
    """Family decisions come back as values; forking, committing tokens
    and finishing branches stay the scheduler's."""
    assert {owner for owner, _ in _attribute_writes("families.py")} == {"self"}


def test_prefill_unit_writes_only_the_prefill_cursor():
    writes = {attr for owner, attr in _attribute_writes("prefill.py") if owner == "state"}
    assert writes == {"prefix_node", "prefix_tainted", "prefilled"}


def test_beam_score_is_raw_without_a_penalty():
    assert beam_score(-3.5, 7, 0) == -3.5
    assert beam_score(-3.5, 0, 0.8) == -3.5  # an empty hypothesis
    assert beam_score(-3.5, 4, 0.5) == -3.5 / 2.0


def _namespace_reads_per_submit(model, monkeypatch, history):
    """Serve ``history`` plain requests, then count the ids the
    namespace rule parses while one plain request and one fork family
    are submitted."""
    rng = np.random.default_rng(3)
    scheduler = Scheduler(model, max_batch_size=8)
    for i in range(history):
        scheduler.submit(Request(f"h{i}", rng.integers(0, 64, size=4), max_new_tokens=1))
    scheduler.run()
    parsed = []
    owner = families.namespace_owner
    monkeypatch.setattr(
        families, "namespace_owner", lambda rid: parsed.append(rid) or owner(rid)
    )
    scheduler.submit(Request("plain", np.arange(4), max_new_tokens=1))
    scheduler.submit(Request("fam", np.arange(4), max_new_tokens=1, n=2))
    return len(parsed)


def test_submit_cost_does_not_grow_with_history(model, monkeypatch):
    """A submission checks its id against an index, never by scanning
    the requests served so far."""
    short = _namespace_reads_per_submit(model, monkeypatch, 2)
    long = _namespace_reads_per_submit(model, monkeypatch, 40)
    assert short == long <= 4
