"""First-class search methods behind the proposer seam.

AMBS and aging evolution are not side-cars: they ride the same runner,
broker, event stream, and durability machinery as the RL methods.
These tests pin that contract — registry coverage, seed determinism on
the balsam backend, checkpoint/resume bit-identity, SIGKILL crash-point
durability (``crashfuzz``-marked), and the tabular-benchmark acceptance
check that AMBS reaches low exact regret in fewer evaluations than
random search on an exhaustively swept space.
"""

import numpy as np
import pytest

from _checkpoint_common import round_trip
from repro.bench import ArchTable, SweepConfig, capped_space, sweep_space
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.plancache import SignatureResolver
from repro.nas.spaces import combo_small, get_space
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.problems.nt3 import NT3_PAPER_SHAPES, nt3_head
from repro.rewards import SurrogateReward, TabularReward
from repro.search import (SEARCH_METHODS, NasSearch, SearchConfig,
                          run_search)
from repro.search.ambs import AmbsProposer, RidgeEnsemble, encode_rows
from repro.search.evolution import EvolutionProposer
from repro.search.proposer import (A2CProposer, A3CProposer,
                                   PolicyProposer, RandomProposer)
from repro.analytics import evaluations_to_regret

NEW_METHODS = ("ambs", "evolution")


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


def small_config(method, minutes=30, **kwargs):
    defaults = dict(method=method, allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1,
                    population_size=12, tournament_size=4)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestRegistry:
    def test_every_method_is_registered(self):
        assert set(SEARCH_METHODS) == {"a3c", "a2c", "rdm",
                                       "ambs", "evolution"}

    def test_exchange_registry_is_still_rl_only(self):
        # only the paper's two RL modes exchange: they are the policy
        # proposers, and every other method owns no parameter server
        rl = {name for name, m in SEARCH_METHODS.items()
              if issubclass(m.proposer, PolicyProposer)}
        assert rl == {"a3c", "a2c"}
        for name in ("rdm", "ambs", "evolution"):
            assert SEARCH_METHODS[name].proposer.ps is None

    def test_method_rows_are_consistent(self):
        for name, m in SEARCH_METHODS.items():
            assert m.name == name
            assert m.proposer.name == name
            assert m.summary
            # the runner builds policies exactly for the proposers that
            # sample them
            assert m.proposer.learns == issubclass(m.proposer,
                                                   PolicyProposer)
        assert SEARCH_METHODS["a3c"].proposer is A3CProposer
        assert SEARCH_METHODS["a2c"].proposer is A2CProposer
        assert SEARCH_METHODS["rdm"].proposer is RandomProposer
        assert SEARCH_METHODS["ambs"].proposer is AmbsProposer
        assert SEARCH_METHODS["evolution"].proposer is EvolutionProposer

    def test_unknown_method_error_lists_the_registry(self):
        with pytest.raises(ValueError, match="ambs.*evolution"):
            SearchConfig(method="bogus")

    def test_cli_list_methods(self, capsys):
        from repro.cli import main
        assert main(["search", "--list-methods"]) == 0
        out = capsys.readouterr().out
        for name in SEARCH_METHODS:
            assert name in out


class TestConfigValidation:
    def test_population_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=1)
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=5,
                         tournament_size=6)


class TestSurrogate:
    def test_encode_rows_shape_and_intercept(self):
        rows = [(0, 1), (2, 0)]
        x = encode_rows(rows, [3, 2])
        assert x.shape == (2, 6)
        assert np.all(x[:, -1] == 1.0)
        assert np.array_equal(x[0, :5], [1, 0, 0, 0, 1])

    def test_ridge_recovers_a_linear_signal(self):
        rng = np.random.default_rng(0)
        rows = [tuple(rng.integers(0, 3, size=4)) for _ in range(200)]
        y = np.array([r[0] - 0.5 * r[2] for r in rows], dtype=float)
        x = encode_rows(rows, [3, 3, 3, 3])
        ens = RidgeEnsemble(members=6)
        ens.fit(x, y, rng)
        mean, std = ens.predict(x)
        assert np.corrcoef(mean, y)[0, 1] > 0.95
        assert np.all(std >= 0.0)


class TestDeterminism:
    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_balsam_runs_are_bit_identical(self, space, method):
        keys = []
        for _ in range(2):
            res = run_search(space, make_surrogate(space),
                             small_config(method))
            assert res.num_evaluations > 20
            assert all(-1.0 <= r.reward <= 1.0 for r in res.records)
            keys.append((res.fingerprint(),
                         [(r.time, r.arch.key) for r in res.records]))
        assert keys[0] == keys[1]


class TestCheckpointResume:
    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_mid_checkpoint_resume_is_bit_identical(self, space, method):
        surrogate = make_surrogate(space)
        cfg = small_config(method, checkpoint_every_records=24)
        search = NasSearch(space, surrogate, cfg)
        full = search.run()
        assert len(search.checkpoints) >= 2
        mid = search.checkpoints[len(search.checkpoints) // 2]
        resumed = NasSearch(space, surrogate, cfg,
                            resume_from=round_trip(mid)).run()
        assert resumed.fingerprint() == full.fingerprint()

    @pytest.mark.parametrize("method", NEW_METHODS)
    def test_boundaries_carry_the_history_watermark(self, space, method):
        surrogate = make_surrogate(space)
        cfg = small_config(method, checkpoint_every_records=24)
        search = NasSearch(space, surrogate, cfg)
        search.run()
        ckpt = search.checkpoints[-1]
        marks = [a.boundary.proposer_seen for a in ckpt.agents
                 if a.boundary is not None]
        assert marks and all(m is not None for m in marks)
        # at least one agent reached a boundary after observations landed
        assert max(marks) > 0


@pytest.mark.crashfuzz
@pytest.mark.parametrize("method", NEW_METHODS)
def test_crashpoint_cell_zero_reevaluation(method):
    from repro.search import chaos
    rows = chaos.run("crashpoint", (method,), backends=("serial",),
                     points=1)
    assert rows and rows[0]["kill_points"]
    assert chaos.check("crashpoint", rows) == []


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def nt3_table(tmp_path_factory):
    """An *exhaustively* swept nt3 sub-space (cap_ops=2, 4096 archs):
    every architecture has a true reward, so exact regret is meaningful
    and the table-miss policy never fires."""
    out = tmp_path_factory.mktemp("nt3_table")
    space = capped_space(get_space("nt3-small", scale=0.05), 2)
    reward = SurrogateReward(space, NT3_PAPER_SHAPES, nt3_head(),
                             TrainingCostModel.nt3_paper(), epochs=1,
                             train_fraction=1.0, timeout=600.0, seed=7)
    metadata = {"problem": "nt3", "size": "small", "scale": 0.05,
                "cap_ops": 2, "cap": None, "seed": 0}
    sweep_space(space, reward, out,
                SweepConfig(backend="thread", workers=4, shard_size=512,
                            seed=0), metadata=metadata)
    return ArchTable.load(out), space


def tabular_reward(table, space):
    resolver = SignatureResolver(space, NT3_PAPER_SHAPES, nt3_head())
    return TabularReward(table, resolver, miss="failure")


@pytest.mark.slow
class TestTabularRegret:
    """The ISSUE acceptance check: on a capped tabular benchmark, AMBS
    reaches the 0.05 exact-regret threshold in fewer evaluations than
    random search at the same seed."""

    def replay(self, table, space, method, seed):
        reward = tabular_reward(table, space)
        cfg = SearchConfig(method=method,
                           allocation=NodeAllocation(32, 4, 3),
                           wall_time=240 * 60.0, seed=seed)
        return run_search(reward.resolver.structure, reward, cfg)

    def test_ambs_beats_rdm_to_low_regret(self, nt3_table):
        table, space = nt3_table
        optimum = table.optimum().reward
        seed = 1
        ambs = self.replay(table, space, "ambs", seed)
        rdm = self.replay(table, space, "rdm", seed)
        e_ambs = evaluations_to_regret(ambs.records, optimum, 0.05)
        e_rdm = evaluations_to_regret(rdm.records, optimum, 0.05)
        assert e_ambs is not None
        assert e_rdm is None or e_ambs < e_rdm

    def test_evolution_finds_strong_archs(self, nt3_table):
        table, space = nt3_table
        optimum = table.optimum().reward
        res = self.replay(table, space, "evolution", seed=1)
        traj_best = max(r.reward for r in res.records)
        assert optimum - traj_best <= 0.05
