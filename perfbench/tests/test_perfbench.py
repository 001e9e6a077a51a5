"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers, trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self-time arithmetic ----------------------------------------------
def test_self_times_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    spans = [["a", -1, 0.0, 10.0, 1], ["b", 0, 1.0, 4.0, 1],
             ["d", 1, 2.0, 3.0, 1], ["c", 0, 5.0, 9.0, 1],
             ["b", -1, 12.0, 13.0, 1]]
    got = trace.self_times(spans)
    assert got == {"a": (1, 3.0), "b": (2, 3.0), "d": (1, 1.0),
                   "c": (1, 4.0)}
    # self times sum to the time covered by the top-level spans
    assert sum(s for _, s in got.values()) == pytest.approx(11.0)


def test_tracer_records_nesting_and_ignores_inactive_calls():
    clock = FakeClock()
    tracer = trace.Tracer(clock)
    assert tracer.enter("x") == -1          # inactive: nothing recorded
    tracer.active = True
    outer = tracer.enter("outer")
    clock.now = 1.0
    inner = tracer.enter("inner")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    assert trace.self_times(tracer.spans) == {"outer": (1, 2.0),
                                              "inner": (1, 2.0)}
    with pytest.raises(RuntimeError):
        a = tracer.enter("a")
        tracer.enter("b")
        tracer.exit(a)


def test_generator_resumptions_are_spans_but_one_call():
    clock = FakeClock()
    tracer = trace.Tracer(clock)
    tracer.active = True

    def body():
        clock.now += 1.0
        got = yield "first"
        clock.now += 2.0
        try:
            yield got
        except KeyError:
            clock.now += 4.0
        return "done"

    gen = trace._timed_resumptions(body(), tracer, "g")
    assert next(gen) == "first"
    assert gen.send("echo") == "echo"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "done"
    assert trace.self_times(tracer.spans) == {"g": (1, 7.0)}


# -- wrapper install / uninstall -----------------------------------------
def _owners():
    """Every class and module a patch can touch, with a copy of its
    attribute dict."""
    owners = []
    for patch in layers.PATCHES:
        owner, _ = trace._resolve(patch.target)
        if isinstance(owner, type):
            owners.extend(trace._subclasses(owner))
    owners.extend(m for name, m in list(sys.modules.items())
                  if name.startswith("repro"))
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_install_then_uninstall_leaves_classes_unchanged():
    before = _owners()
    tracer = trace.Tracer()
    undo = trace.install(layers.PATCHES, tracer)
    changed = [o for o, attrs in before.values() if dict(vars(o)) != attrs]
    assert changed, "install wrapped nothing"
    trace.uninstall(undo)
    for owner, attrs in before.values():
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner
        for key, value in attrs.items():
            assert now[key] is value, (owner, key)


def test_names_imported_by_name_are_patched_at_call_sites():
    import repro.nas.builder as builder
    import repro.nas.plancache as plancache
    import repro.rewards.training as training
    original = builder.compile_architecture
    undo = trace.install(layers.PATCHES, trace.Tracer())
    try:
        for module in (builder, plancache, training):
            assert module.compile_architecture is not original
            assert module.compile_architecture.__wrapped__ is original
    finally:
        trace.uninstall(undo)
    for module in (builder, plancache, training):
        assert module.compile_architecture is original


def test_traced_search_matches_untraced_and_adds_up():
    from repro.experiments import surrogate_for
    from repro.hpc import NodeAllocation
    from repro.search import NasSearch, SearchConfig

    def run():
        reward = surrogate_for("combo", "small", seed=1)
        cfg = SearchConfig(method="a3c", allocation=NodeAllocation(13, 3, 3),
                           wall_time=300.0, seed=1)
        return NasSearch(reward.space, reward, cfg)

    plain = run().run().fingerprint()
    tracer = trace.Tracer()
    undo = trace.install(layers.PATCHES, tracer)
    try:
        search = run()
        tracer.active = True
        start = tracer.clock()
        result = search.run()
        wall = tracer.clock() - start
        tracer.active = False
    finally:
        trace.uninstall(undo)
    assert result.fingerprint() == plain
    tallies = trace.self_times(tracer.spans)
    for layer in ("hpc.sim.run", "rl.ppo.update_delta",
                  "search.proposer.propose", "rewards.evaluate"):
        assert tallies[layer][0] > 0, layer
    total = sum(s for _, s in tallies.values())
    assert 0 < total <= wall


# -- the contract's limits -------------------------------------------------
def test_metric_names_units_and_limits():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_json_matches_the_code():
    from perfbench.workloads import WORKLOADS
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(layers.EXPECTED) == set(WORKLOADS)
    declared = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    assert declared == set(layers.per_layer_names())
    for expected in layers.EXPECTED.values():
        assert set(expected) <= set(layers.LAYERS)
