"""Tests for the isomorphism-keyed compile cache (repro.nas.plancache).

Covers the ISSUE 6 acceptance points: isomorphic architectures share one
plan object, non-isomorphic ones do not, cached and fresh compilation
are interchangeable (bit-identical search fingerprints), and cache state
survives checkpoint/resume.
"""

import gc
import hashlib
import os

import numpy as np
import pytest

from _checkpoint_common import CaptureLog
from repro.bench import capped_space, enumerate_space
from repro.experiments import PAPER_SETUP
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.builder import compile_architecture
from repro.nas import plancache
from repro.nas.nodes import VariableNode
from repro.nas.plancache import PlanCache, SignatureResolver, plan_signature
from repro.nas.space import Block, Cell, Structure
from repro.nas.spaces import SPACES, combo_small, get_space
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

    def test_memos_leave_plan_identity_and_ops_alone(self):
        """The signature is memoized on the plan and the op token per
        live op, so neither changes what ``==`` compares, and a rebuilt
        space's tokens are dropped with its ops."""
        s = dup_space()
        plan = compile_architecture(s, (2,), SHAPES)
        op_state = dict(plan.nodes[0].op.__dict__)
        sig = plan_signature(plan)
        assert plan_signature(plan) is sig
        assert plan == compile_architecture(s, (2,), SHAPES)
        assert plan.nodes[0].op.__dict__ == op_state
        held = len(plancache._OP_TOKENS)
        del s, plan
        gc.collect()
        assert len(plancache._OP_TOKENS) < held


#: sha256 over the plan signatures of a fixed architecture sample from
#: every registered space, recorded at commit 70853e5 (before signatures
#: and op tokens were memoized).  Bench tables on disk are keyed by
#: these signatures, so any change to how a plan is hashed moves this.
_SIGNATURE_SAMPLE_DIGEST = \
    "0f5b202743f1cffc7b6b2e22db108606fd1fd97b60d2a031c4c2b365febae204"
#: seeded random architectures drawn from each registered space
_RANDOM_ARCHS_PER_SPACE = 64


def _signature_sample(new_cache):
    """Signatures of all 4,096 archs of the nt3 cap-ops-2 sub-space (the
    benchmark's table), of seeded random archs of every registered space
    under its problem's paper shapes and head, and of seeded nt3 archs
    over an input too short for some pooling chains; ``None`` marks an
    architecture that does not compile.  Each resolver gets its own
    cache from ``new_cache()``: a plan cache refuses to serve one space
    under two input shapes."""
    nt3 = capped_space(get_space("nt3-small", scale=0.05), 2)
    shapes, head, _ = PAPER_SETUP["nt3"]
    resolver = SignatureResolver(nt3, shapes, head(), new_cache())
    sigs = [resolver.try_signature(a) for a in enumerate_space(nt3)]
    assert len(sigs) == 4096
    for name, factory in SPACES.items():
        space = factory()
        shapes, head, _ = PAPER_SETUP[name.split("-")[0]]
        resolver = SignatureResolver(space, shapes, head(), new_cache())
        rng = np.random.default_rng(0)
        sigs += [resolver.try_signature(space.random_architecture(rng))
                 for _ in range(_RANDOM_ARCHS_PER_SPACE)]
    space = get_space("nt3-small")
    resolver = SignatureResolver(space, {"rnaseq_expression": (60, 1)},
                                 PAPER_SETUP["nt3"][1](), new_cache())
    rng = np.random.default_rng(0)
    sigs += [resolver.try_signature(space.random_architecture(rng))
             for _ in range(_RANDOM_ARCHS_PER_SPACE)]
    return sigs


@pytest.mark.parametrize("cached", [False, True],
                         ids=["no_cache", "plan_cache"])
def test_plan_signatures_are_pinned(cached):
    sigs = _signature_sample(PlanCache if cached else lambda: None)
    assert None in sigs and len(set(sigs)) > 1
    blob = "\n".join(str(sig) for sig in sigs).encode()
    assert hashlib.sha256(blob).hexdigest() == _SIGNATURE_SAMPLE_DIGEST


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

    def test_one_space_under_two_input_shapes_is_refused(self):
        # one cache behind two nt3-small resolvers: a plan depends on the
        # input shapes, which the exact key leaves out, so the second
        # resolver must not be handed the first one's plans
        space = get_space("nt3-small")
        shapes, head, _ = PAPER_SETUP["nt3"]
        short = {"rnaseq_expression": (60, 1)}
        cache = PlanCache()
        paper = SignatureResolver(space, shapes, head(), cache)
        rng = np.random.default_rng(0)
        archs = [space.random_architecture(rng) for _ in range(32)]
        sigs = [paper.signature(a) for a in archs]
        resolver = SignatureResolver(space, short, head(), cache)
        for arch in archs:
            with pytest.raises(ValueError, match="own cache"):
                resolver.try_signature(arch)
        with pytest.raises(ValueError, match="own cache"):
            cache.get_or_compile(space, archs[0].choices, short, head())
        # equal shapes and head ops in other objects share the plans
        again = SignatureResolver(space, dict(shapes), head(), cache)
        assert [again.signature(a) for a in archs] == sigs
        assert cache.misses == len({a.choices for a in archs})

    def test_clear_resets_the_context(self):
        cache = PlanCache()
        s = dup_space()
        cache.get_or_compile(s, (0,), SHAPES)
        cache.clear()
        wide = {"x": (16,)}
        plan = cache.get_or_compile(s, (0,), wide)
        assert plan.input_shapes["x"] == (16,)
        cache.clear()
        assert cache.get_or_compile(s, (0,), SHAPES).input_shapes["x"] \
            == (8,)
        with pytest.raises(ValueError, match="own cache"):
            cache.get_or_compile(s, (0,), wide)


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

    def test_cache_survives_checkpoint_resume(self, space, tmp_path):
        """Resuming keeps the reward model's warm cache (the runner must
        not replace an attached cache) and reproduces the fingerprint."""
        surrogate = make_surrogate(space)
        cfg = small_config(minutes=30, checkpoint_every_records=30,
                           journal_dir=os.fspath(tmp_path))
        log = CaptureLog()
        full = log.attach(NasSearch(space, surrogate, cfg,
                                    event_sink=log)).run()
        cache = surrogate.plan_cache
        assert cache is not None and len(cache) > 0
        warm_entries = len(cache)

        mid = log.checkpoint(len(log.captures) // 2)
        resumed = NasSearch(space, surrogate, small_config(minutes=30),
                            resume_from=mid).run()
        assert surrogate.plan_cache is cache       # same warm cache
        assert len(cache) >= warm_entries
        assert resumed.fingerprint() == full.fingerprint()
