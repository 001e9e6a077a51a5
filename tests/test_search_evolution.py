"""Tests for the aging-evolution comparator (``method="evolution"``)."""

import numpy as np
import pytest

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, run_search
from repro.search.proposer import mutate_choices


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_reward(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           log_params_opt=6.5, seed=seed)


def evolution_config(**kwargs):
    return SearchConfig(method="evolution",
                        allocation=NodeAllocation(32, 4, 3), **kwargs)


class TestConfig:
    def test_defaults(self):
        cfg = SearchConfig(method="evolution")
        assert cfg.population_size == 50
        assert cfg.tournament_size == 10
        assert cfg.allocation == NodeAllocation.paper_256()

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=1)
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=5,
                         tournament_size=6)


class TestMutation:
    def test_mutates_exactly_one_decision(self, space):
        rng = np.random.default_rng(0)
        parent = space.random_architecture(rng)
        for _ in range(20):
            child = mutate_choices(space, parent.choices, rng)
            diff = sum(a != b for a, b in zip(parent.choices, child))
            assert diff == 1

    def test_child_is_valid(self, space):
        rng = np.random.default_rng(1)
        parent = space.random_architecture(rng)
        child = mutate_choices(space, parent.choices, rng)
        space.decode(child)  # raises if invalid


class TestRuns:
    def test_run_produces_records(self, space):
        cfg = evolution_config(population_size=12, tournament_size=4,
                               wall_time=60 * 60, seed=1)
        res = run_search(space, make_reward(space), cfg)
        assert res.num_evaluations > 20
        assert all(-1.0 <= r.reward <= 1.0 for r in res.records)

    def test_population_bounded(self, space):
        cfg = evolution_config(population_size=10, tournament_size=3,
                               wall_time=60 * 60, seed=1)
        search = NasSearch(space, make_reward(space), cfg)
        res = search.run()
        pop = search.proposer.population()
        assert len(pop) == 10 < res.num_evaluations
        # aging: the population is the newest observations
        assert [choices for choices, _reward in pop] \
            == [rec.arch.choices for rec in res.records[-10:]]

    def test_deterministic(self, space):
        cfg = evolution_config(population_size=10, tournament_size=3,
                               wall_time=30 * 60, seed=5)
        keys = []
        for _ in range(2):
            res = run_search(space, make_reward(space), cfg)
            keys.append([(r.time, r.arch.key) for r in res.records])
        assert keys[0] == keys[1]

    def test_evolution_improves_over_random_start(self, space):
        cfg = evolution_config(population_size=16, tournament_size=6,
                               wall_time=240 * 60, seed=2)
        res = run_search(space, make_reward(space), cfg)
        recs = sorted(res.records, key=lambda r: r.time)
        # baseline on the random warm-up era (proposals made while the
        # population was still filling), so the comparison holds however
        # quickly tournament selection converges afterwards
        warm = 2 * cfg.population_size
        first = float(np.mean([r.reward for r in recs[:warm]]))
        last = float(np.mean([r.reward for r in recs[-(len(recs) // 4):]]))
        assert last > first + 0.05
