"""Table serving, isomorphism keying, miss policies, and exact-regret
analytics — including the search-level determinism the benchmark mode
exists for: seeded searches replayed against one table fingerprint
bit-identically, regardless of evaluator backend.
"""

import hashlib
import json

import pytest

from repro.analytics.regret import (compare_report, evaluations_to_regret,
                                    fraction_of_optimum_trajectory,
                                    regret_summary, regret_trajectory)
from repro.bench import (ArchTable, SweepConfig, TableRow, TableWriter,
                         sweep_space)
from repro.evaluator.cache import EvalCache
from repro.hpc import NodeAllocation
from repro.nas.arch import Architecture
from repro.nas.nodes import VariableNode
from repro.nas.ops import DenseOp
from repro.nas.plancache import SignatureResolver
from repro.nas.space import Block, Cell, Structure
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import TableMiss, TabularReward
from repro.rewards.base import EvalResult
from repro.search import SearchConfig, run_search
from repro.search.base import RewardRecord

from _bench_common import sweep_combo_table

pytestmark = pytest.mark.bench


# -- isomorphic architectures share one table row ----------------------
def iso_space() -> Structure:
    """A space with a *repeated* op in one decision: choices 0 and 1 of
    node N0 compile to the same plan, so (0, c) and (1, c) are
    guaranteed isomorphic action sequences."""
    space = Structure("iso-toy", ["x"])
    cell = Cell("C0")
    block = Block("B0", inputs=["x"])
    block.add_node(VariableNode("N0", [DenseOp(4, "relu"),
                                      DenseOp(4, "relu"),
                                      DenseOp(8, "tanh")]))
    block.add_node(VariableNode("N1", [DenseOp(4, "relu"),
                                       DenseOp(2, "relu")]))
    cell.add_block(block)
    space.add_cell(cell)
    space.validate()
    return space


class ChoiceReward:
    """Deterministic toy reward keyed on the raw choice tuple."""

    FAILURE_REWARD = -1.0
    plan_cache = None
    input_shapes = {"x": (6,)}
    head_ops = None

    def set_plan_cache(self, cache):
        self.plan_cache = cache

    def prefetch_plan(self, arch):
        pass

    def evaluate(self, arch, agent_seed=0):
        return EvalResult(0.1 * sum(arch.choices), 1.0, 100)


def test_isomorphic_archs_hit_the_same_table_row(tmp_path):
    space = iso_space()
    assert space.size == 6
    report = sweep_space(space, ChoiceReward(), tmp_path,
                         SweepConfig(shard_size=4))
    # 6 action sequences, but choices 0/1 of N0 are one plan: 4 classes
    assert report.enumerated == 6
    assert report.iso_skips == 2
    assert report.evaluated == 4

    table = ArchTable.load(tmp_path)
    assert len(table) == 4
    resolver = SignatureResolver(space, {"x": (6,)})
    a, b = Architecture("iso-toy", (0, 1)), Architecture("iso-toy", (1, 1))
    assert resolver.signature(a) == resolver.signature(b)
    assert table.get(resolver.signature(a)) is table.get(
        resolver.signature(b))

    # ...and TabularReward serves both the identical result
    model = TabularReward(table, resolver)
    assert model.evaluate(a) == model.evaluate(b)

    # the agent-local EvalCache deliberately keys on the *exact*
    # (space, choices) pair — isomorphic archs are distinct entries
    # there (agent-specific weight init), while the table collapses them
    assert a.key != b.key
    cache = EvalCache()
    cache.put(a, EvalResult(0.5, 1.0, 10))
    assert a in cache and b not in cache


def test_identical_sequences_share_exact_key():
    a = Architecture("iso-toy", (0, 1))
    b = Architecture("iso-toy", (0, 1))
    assert a.key == b.key
    cache = EvalCache()
    cache.put(a, EvalResult(0.5, 1.0, 10))
    assert cache.get(b) == EvalResult(0.5, 1.0, 10)


# -- miss policies -----------------------------------------------------
@pytest.fixture(scope="module")
def combo_table(tmp_path_factory):
    d = tmp_path_factory.mktemp("combo_table")
    space, report = sweep_combo_table(d, cap=60, shard_size=32)
    assert report.failed == 0
    return ArchTable.load(d), space


def _missing_arch(table, space):
    """An architecture whose class the (sampled) table does not hold."""
    resolver = SignatureResolver(space, COMBO_PAPER_SHAPES, combo_head())
    from repro.bench import enumerate_space
    for arch in enumerate_space(space):
        if resolver.signature(arch) not in table:
            return arch, resolver
    pytest.fail("sampled table unexpectedly covers the whole space")


def test_a_changed_digit_in_a_sealed_shard_is_refused(tmp_path):
    """A sealed shard must hash to its manifest's sha256: one changed
    reward digit fails both the table load and a resumed sweep."""
    with TableWriter(tmp_path, "toy", shard_size=2) as writer:
        for i in range(3):
            writer.append(TableRow(f"s{i}", "toy", (i,), 0.125 + i, 1.0, 10))
    assert len(ArchTable.load(tmp_path)) == 3
    shard = tmp_path / "shard-00001.jsonl"
    text = shard.read_text()
    assert text.count('"reward":2.125') == 1
    shard.write_text(text.replace('"reward":2.125', '"reward":2.135'))
    with pytest.raises(ValueError, match="shard-00001.jsonl"):
        ArchTable.load(tmp_path)
    with pytest.raises(ValueError, match="shard-00001.jsonl"):
        TableWriter(tmp_path, "toy", shard_size=2)


def test_resumed_sweep_seals_digests_of_the_shard_bytes(tmp_path):
    """Each shard's digest is taken as its lines are written, the tail
    rows a resumed sweep rewrites included: a sweep killed mid-shard
    (one sealed shard, a tail with two rows and a torn line) and then
    resumed seals every shard with the sha256 of its bytes on disk."""
    def row(i):
        return TableRow(f"s{i}", "toy", (i,), 0.125 + i, 1.0, 10)

    killed = TableWriter(tmp_path, "toy", shard_size=3)
    for i in range(5):
        killed.append(row(i))
    with open(tmp_path / "shard-00001.jsonl", "a") as fh:
        fh.write('{"sig":"s5","spa')        # killed mid-append
    with TableWriter(tmp_path, "toy", shard_size=3) as writer:
        assert writer.recovered_rows == 2
        for i in range(5, 10):
            writer.append(row(i))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [e["rows"] for e in manifest["shards"]] == [3, 3, 3, 1]
    for entry in manifest["shards"]:
        data = (tmp_path / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert len(ArchTable.load(tmp_path)) == 10


def test_miss_policies(combo_table):
    table, space = combo_table
    arch, resolver = _missing_arch(table, space)

    strict = TabularReward(table, resolver, miss="error")
    with pytest.raises(TableMiss):
        strict.evaluate(arch)

    fallback = TabularReward(table, resolver, miss="fallback",
                             fallback_reward=0.25)
    assert fallback.evaluate(arch) == EvalResult(0.25, 0.0, 0)

    failure = TabularReward(table, resolver, miss="failure")
    assert failure.evaluate(arch) == EvalResult(
        TabularReward.FAILURE_REWARD, 0.0, 0)

    hit = Architecture(space.name, next(iter(table.rows.values())).choices)
    assert strict.evaluate(hit).reward == table.get(
        resolver.signature(hit)).reward

    with pytest.raises(ValueError, match="miss policy"):
        TabularReward(table, resolver, miss="explode")


# -- exact-regret analytics --------------------------------------------
def _rec(t, reward):
    return RewardRecord(time=t, agent_id=0,
                        arch=Architecture("toy", (0,)), reward=reward,
                        params=10, duration=1.0, cached=False,
                        timed_out=False)


def test_regret_trajectory_properties():
    records = [_rec(60.0, 0.1), _rec(120.0, 0.4), _rec(180.0, 0.2),
               _rec(240.0, 0.7)]
    traj = regret_trajectory(records, optimum=0.7)
    assert traj.shape == (4, 2)
    assert list(traj[:, 0]) == [1.0, 2.0, 3.0, 4.0]        # minutes
    # regret is monotonically non-increasing and hits exactly 0
    assert all(a >= b for a, b in zip(traj[:, 1], traj[1:, 1]))
    assert traj[-1, 1] == 0.0

    frac = fraction_of_optimum_trajectory(records, optimum=0.7)
    assert ((0.0 <= frac[:, 1]) & (frac[:, 1] <= 1.0)).all()
    assert frac[-1, 1] == 1.0

    assert evaluations_to_regret(records, 0.7) == 4
    assert evaluations_to_regret(records, 0.7, threshold=0.3) == 2
    assert evaluations_to_regret(records, 2.0) is None

    summary = regret_summary(records, 0.7)
    assert summary["found_optimum"] is True
    assert summary["evaluations_to_optimum"] == 4
    assert summary["final_regret"] == 0.0

    report = compare_report({"m": [records, records[:2]]}, 0.7)
    m = report["methods"]["m"]
    assert m["replicates"] == 2 and m["optimum_hits"] == 1
    assert m["min_final_regret"] == 0.0
    assert m["max_final_regret"] == pytest.approx(0.3)


def test_regret_of_empty_run_is_well_defined():
    assert regret_trajectory([], 0.5).shape == (0, 2)
    summary = regret_summary([], 0.5)
    assert summary["final_regret"] is None
    assert summary["found_optimum"] is False


# -- search-level determinism over the table ---------------------------
def _replay(table, space, method, backend="balsam", seed=3):
    resolver = SignatureResolver(space, COMBO_PAPER_SHAPES, combo_head())
    model = TabularReward(table, resolver, miss="failure")
    alloc = NodeAllocation(9, 2, 3)
    if backend == "balsam":
        cfg = SearchConfig(method=method, allocation=alloc,
                           wall_time=300.0, seed=seed)
    else:
        cfg = SearchConfig(method=method, allocation=alloc,
                           wall_time=60.0, seed=seed, backend=backend,
                           max_iterations=4)
    return run_search(space, model, cfg)


@pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
def test_seeded_search_against_table_reproduces_fingerprint(
        combo_table, method):
    table, space = combo_table
    first = _replay(table, space, method)
    second = _replay(table, space, method)
    assert first.fingerprint() == second.fingerprint()
    assert [r.reward for r in first.records] \
        == [r.reward for r in second.records]


def test_backend_choice_does_not_change_the_fingerprint(combo_table):
    """TabularReward's referential transparency makes the evaluator
    backend invisible to the trajectory digest."""
    table, space = combo_table
    serial = _replay(table, space, "a3c", backend="serial")
    threaded = _replay(table, space, "a3c", backend="thread")
    assert serial.fingerprint() == threaded.fingerprint()


def test_search_result_regret_methods(combo_table):
    table, space = combo_table
    result = _replay(table, space, "rdm")
    assert result.records
    optimum = table.optimum().reward
    traj = regret_trajectory(result.records, optimum)
    assert traj.shape == (len(result.records), 2)
    assert (traj[:, 1] >= 0.0).all()
    frac = fraction_of_optimum_trajectory(result.records, optimum)
    assert ((0.0 <= frac[:, 1]) & (frac[:, 1] <= 1.0)).all()
    # best-so-far regret at the end matches the table's own regret()
    assert traj[-1, 1] == pytest.approx(
        max(0.0, table.regret(result.best().reward)))
