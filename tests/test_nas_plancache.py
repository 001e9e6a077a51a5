"""Tests for the isomorphism-keyed compile cache (repro.nas.plancache).

Covers the ISSUE 6 acceptance points: isomorphic architectures share one
plan object, non-isomorphic ones do not, cached and fresh compilation
are interchangeable (bit-identical search fingerprints), and cache state
survives checkpoint/resume.
"""

import numpy as np
import pytest

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.builder import compile_architecture
from repro.nas.nodes import VariableNode
from repro.nas.plancache import PlanCache, plan_signature
from repro.nas.space import Block, Cell, Structure
from repro.nas.spaces import combo_small
from repro.nas.ops import DenseOp, DropoutOp
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, run_search

SHAPES = {"x": (8,)}


def dup_space():
    """One variable node whose option list repeats an operation, so
    choices 0 and 1 decode to structurally identical networks while
    choice 2 does not."""
    s = Structure("dup", ["x"], output_sources="last_cell")
    node = VariableNode("N0", [DenseOp(16), DenseOp(16), DenseOp(32)])
    s.add_cell(Cell("C0").add_block(Block("B0", ["x"]).add_node(node)))
    s.validate()
    return s


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


def small_config(minutes=20, **kwargs):
    defaults = dict(method="a3c", allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestPlanSignature:
    def test_isomorphic_choices_same_signature(self):
        s = dup_space()
        p0 = compile_architecture(s, (0,), SHAPES)
        p1 = compile_architecture(s, (1,), SHAPES)
        assert p0 is not p1
        assert plan_signature(p0) == plan_signature(p1)

    def test_different_ops_different_signature(self):
        s = dup_space()
        p0 = compile_architecture(s, (0,), SHAPES)
        p2 = compile_architecture(s, (2,), SHAPES)
        assert plan_signature(p0) != plan_signature(p2)

    def test_signature_deterministic(self):
        space = combo_small()
        rng = np.random.default_rng(3)
        for _ in range(5):
            arch = space.random_architecture(rng)
            plans = [compile_architecture(space, arch.choices,
                                          COMBO_PAPER_SHAPES, combo_head())
                     for _ in range(2)]
            assert plan_signature(plans[0]) == plan_signature(plans[1])

    def test_op_params_distinguish(self):
        # same op type, different constructor state -> different plan
        s1 = Structure("d1", ["x"])
        s1.add_cell(Cell("C0").add_block(
            Block("B0", ["x"]).add_node(VariableNode("N0", [DropoutOp(0.1)]))))
        s2 = Structure("d1", ["x"])
        s2.add_cell(Cell("C0").add_block(
            Block("B0", ["x"]).add_node(VariableNode("N0", [DropoutOp(0.5)]))))
        p1 = compile_architecture(s1, (0,), SHAPES)
        p2 = compile_architecture(s2, (0,), SHAPES)
        assert plan_signature(p1) != plan_signature(p2)


class TestPlanCache:
    def test_exact_hit_returns_same_object(self):
        cache = PlanCache()
        s = dup_space()
        p = cache.get_or_compile(s, (0,), SHAPES)
        assert cache.get_or_compile(s, (0,), SHAPES) is p
        assert cache.stats() == {"entries": 1, "unique_plans": 1,
                                 "hits": 1, "misses": 1, "iso_hits": 0}

    def test_isomorphic_architectures_share_one_plan(self):
        cache = PlanCache()
        s = dup_space()
        p0 = cache.get_or_compile(s, (0,), SHAPES)
        p1 = cache.get_or_compile(s, (1,), SHAPES)
        assert p1 is p0                      # aliased to the first compile
        assert cache.iso_hits == 1
        assert len(cache) == 2               # two exact keys, one plan
        assert cache.stats()["unique_plans"] == 1

    def test_non_isomorphic_architectures_do_not_share(self):
        cache = PlanCache()
        s = dup_space()
        p0 = cache.get_or_compile(s, (0,), SHAPES)
        p2 = cache.get_or_compile(s, (2,), SHAPES)
        assert p2 is not p0
        assert cache.iso_hits == 0
        assert cache.stats()["unique_plans"] == 2

    def test_numpy_choices_normalized(self):
        cache = PlanCache()
        s = dup_space()
        p = cache.get_or_compile(s, (np.int64(0),), SHAPES)
        assert cache.get_or_compile(s, (0,), SHAPES) is p

    def test_compile_error_propagates_and_not_cached(self):
        cache = PlanCache()
        s = dup_space()
        with pytest.raises(KeyError):
            cache.get_or_compile(s, (0,), {"wrong_input": (8,)})
        assert len(cache) == 0
        with pytest.raises(KeyError):   # still re-attemptable, still raises
            cache.get_or_compile(s, (0,), {"wrong_input": (8,)})

    def test_max_entries_bounds_memory(self):
        cache = PlanCache(max_entries=2)
        s = dup_space()
        for choice in (0, 1, 2):
            cache.get_or_compile(s, (choice,), SHAPES)
        assert len(cache) <= 2

    def test_snapshot_restore_roundtrip(self):
        cache = PlanCache()
        s = dup_space()
        originals = {c: cache.get_or_compile(s, (c,), SHAPES)
                     for c in (0, 1, 2)}
        snap = cache.snapshot()

        restored = PlanCache()
        restored.restore(snap, s, SHAPES)
        assert restored.stats() == cache.stats()
        for c, original in originals.items():
            again = restored.get_or_compile(s, (c,), SHAPES)
            assert plan_signature(again) == plan_signature(original)
        # aliasing preserved: choices 0 and 1 still share one object
        assert restored.get_or_compile(s, (0,), SHAPES) \
            is restored.get_or_compile(s, (1,), SHAPES)

    def test_restore_skips_foreign_structures(self):
        cache = PlanCache()
        s = dup_space()
        cache.get_or_compile(s, (0,), SHAPES)
        snap = cache.snapshot()
        other = combo_small()
        restored = PlanCache()
        restored.restore(snap, other, COMBO_PAPER_SHAPES, combo_head())
        assert len(restored) == 0           # key belongs to "dup", skipped
        assert restored.hits == cache.hits  # counters still authoritative


class TestSearchIntegration:
    @pytest.fixture(scope="class")
    def space(self):
        return combo_small()

    def test_cached_matches_fresh_compile_fingerprint(self, space):
        """The plan cache must be invisible to the trajectory: cached and
        fresh compilation give bit-identical search fingerprints."""
        cfg_on = small_config(plan_cache=True)
        cfg_off = small_config(plan_cache=False)
        fp_on = run_search(space, make_surrogate(space), cfg_on).fingerprint()
        fp_off = run_search(space, make_surrogate(space),
                            cfg_off).fingerprint()
        assert fp_on == fp_off

    def test_runner_attaches_shared_cache(self, space):
        surrogate = make_surrogate(space)
        assert surrogate.plan_cache is None
        run_search(space, surrogate, small_config())
        cache = surrogate.plan_cache
        assert cache is not None
        assert len(cache) > 0
        assert cache.hits > 0               # resubmissions were amortized

    def test_plan_cache_off_leaves_model_untouched(self, space):
        surrogate = make_surrogate(space)
        run_search(space, surrogate, small_config(plan_cache=False))
        assert surrogate.plan_cache is None

    def test_cache_survives_checkpoint_resume(self, space):
        """Resuming keeps the reward model's warm cache (the runner must
        not replace an attached cache) and reproduces the fingerprint."""
        surrogate = make_surrogate(space)
        cfg = small_config(minutes=30, checkpoint_interval=600.0)
        search = NasSearch(space, surrogate, cfg)
        full = search.run()
        cache = surrogate.plan_cache
        assert cache is not None and len(cache) > 0
        warm_entries = len(cache)

        mid = search.checkpoints[len(search.checkpoints) // 2]
        resumed = NasSearch(space, surrogate, small_config(minutes=30),
                            resume_from=mid.round_trip()).run()
        assert surrogate.plan_cache is cache       # same warm cache
        assert len(cache) >= warm_entries
        assert resumed.fingerprint() == full.fingerprint()
