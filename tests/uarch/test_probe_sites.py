"""The pipeline's zero-overhead probe rule, checked on its source.

With no probe attached the hot loop must pay exactly one ``is not
None`` test per hook site (docs/INTERNALS.md §8).  These tests walk the
AST of ``uarch/pipeline.py``: every ``probe.bind/notify/on_cycle/reset/
finalize`` call must be the body of an ``if <probe> is not None`` test
on the same probe expression, and the number of hook sites is pinned,
so adding one is a visible decision.
"""

import ast
import pathlib

import repro.uarch.pipeline as pipeline

HOOKS = {"bind", "notify", "on_cycle", "reset", "finalize"}

#: Probe hook sites in pipeline.py: bind, on_cycle, reset, finalize and
#: 17 notify calls (one per raising step).
HOOK_SITES = 21


def _is_probe(node) -> bool:
    """``probe`` or ``<anything>.probe``."""
    return (isinstance(node, ast.Name) and node.id == "probe") or (
        isinstance(node, ast.Attribute) and node.attr == "probe"
    )


def _is_guard(test, receiver) -> bool:
    """``test`` is exactly ``<receiver> is not None``."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and ast.dump(test.left) == ast.dump(receiver)
    )


def hook_sites(source: str):
    """``(sites, violations)``: every hook call, and those not guarded
    by exactly one ``if <probe> is not None`` whose body holds them."""
    tree = ast.parse(source)
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    sites, violations = [], []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in HOOKS
            and _is_probe(node.func.value)
        ):
            continue
        sites.append(node)
        receiver = node.func.value
        statement = parents[node]
        guard = parents[statement]
        guards = 0
        ancestor = guard
        while ancestor is not None:
            if isinstance(ancestor, ast.If) and _is_guard(ancestor.test,
                                                          receiver):
                guards += 1
            ancestor = parents.get(ancestor)
        if not (
            isinstance(statement, ast.Expr)
            and isinstance(guard, ast.If)
            and statement in guard.body
            and _is_guard(guard.test, receiver)
            and guards == 1
        ):
            violations.append(node.lineno)
    return sites, sorted(violations)


def _pipeline_source() -> str:
    return pathlib.Path(pipeline.__file__).read_text()


def test_every_hook_site_is_guarded_once():
    sites, violations = hook_sites(_pipeline_source())
    assert sites
    assert violations == []


def test_hook_site_count_is_pinned():
    sites, _ = hook_sites(_pipeline_source())
    assert len(sites) == HOOK_SITES


def test_checker_flags_unguarded_and_double_guarded_calls():
    source = (
        "def f(self, probe):\n"
        "    self.probe.notify('a', 0)\n"                 # unguarded
        "    if probe is not None and x:\n"
        "        probe.notify('b', 0)\n"                  # compound test
        "    if probe is not None:\n"
        "        if probe is not None:\n"
        "            probe.reset()\n"                     # guarded twice
        "    if self.probe is not None:\n"
        "        probe.finalize(None)\n"                  # other receiver
        "    if probe is not None:\n"
        "        probe.on_cycle(self)\n"                  # fine
    )
    sites, violations = hook_sites(source)
    assert len(sites) == 5
    assert violations == [2, 4, 7, 9]
