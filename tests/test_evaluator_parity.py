"""Backend-parity: the same seeded job stream through the serial,
thread, and simulated-Balsam backends yields identical rewards,
identical broker accounting, and an identical search fingerprint.

This is the contract the broker refactor exists to enforce: all three
backends share one front-end (cache, counters, failure conversion), so
only *when* an evaluation completes may differ — never *what* it is
worth.  Rewards are aligned by architecture within each batch (the
thread pool completes out of order) and chained into a digest exactly
the way the search loop fingerprints trajectories; end-to-end wall
clock vs. virtual time cancels out because the digest hashes actions
and rewards, never timestamps.
"""

import numpy as np
import pytest

from repro.evaluator import (BalsamEvaluator, BalsamService, ProcConfig,
                             ProcessEvaluator, SerialEvaluator,
                             ThreadEvaluator)
from repro.hpc import TrainingCostModel
from repro.hpc.cluster import Cluster
from repro.hpc.sim import Simulator
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import SearchConfig
from repro.search.ambs import AmbsProposer
from repro.search.evolution import EvolutionProposer
from repro.verify.fingerprint import agent_genesis, chain_step

AGENT_ID = 2
NUM_BATCHES = 6
BATCH = 4


@pytest.fixture(scope="module")
def space():
    return combo_small()


@pytest.fixture(scope="module")
def batches(space):
    """A seeded stream of action batches; the last repeats the first so
    every backend must exercise its cache path identically."""
    rng = np.random.default_rng(123)
    dims = np.array(space.action_dims)
    out = [rng.integers(0, dims, size=(BATCH, len(dims)))
           for _ in range(NUM_BATCHES - 1)]
    out.append(out[0].copy())
    return out


def make_surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=7)


def aligned_rewards(archs, recs):
    """Rewards in batch row order, the way the agent loop aligns them."""
    by_key = {}
    for rec in recs:
        by_key.setdefault(rec.arch.key, []).append(rec)
    return np.array([by_key[a.key].pop(0).reward for a in archs])


def stream_digest(space, batches, reward_batches):
    digest = agent_genesis(0, AGENT_ID)
    for actions, rewards in zip(batches, reward_batches):
        digest = chain_step(digest, actions, rewards, None)
    return digest


def drive_inline(evaluator, space, batches):
    """Serial/thread backends: submit, barrier, drain — per batch."""
    reward_batches = []
    with evaluator as ev:
        for actions in batches:
            archs = [space.decode(row) for row in actions]
            ev.add_eval_batch(archs)
            ev.wait_all()
            reward_batches.append(aligned_rewards(archs,
                                                  ev.get_finished_evals()))
    return reward_batches


def drive_balsam(space, batches):
    """Balsam backend: the same stream as a simulator coroutine."""
    sim = Simulator()
    cluster = Cluster(sim, BATCH)
    service = BalsamService(sim, cluster)
    ev = BalsamEvaluator(service, make_surrogate(space), AGENT_ID)
    reward_batches = []

    def agent():
        for actions in batches:
            archs = [space.decode(row) for row in actions]
            done = ev.add_eval_batch(archs)
            yield done
            reward_batches.append(aligned_rewards(archs,
                                                  ev.get_finished_evals()))

    sim.process(agent(), name="agent")
    sim.run()
    return ev, reward_batches


@pytest.fixture(scope="module")
def runs(space, batches):
    serial = SerialEvaluator(make_surrogate(space), AGENT_ID)
    serial_rewards = drive_inline(serial, space, batches)
    thread = ThreadEvaluator(make_surrogate(space), AGENT_ID, max_workers=3)
    thread_rewards = drive_inline(thread, space, batches)
    balsam, balsam_rewards = drive_balsam(space, batches)
    return {"serial": (serial, serial_rewards),
            "thread": (thread, thread_rewards),
            "balsam": (balsam, balsam_rewards)}


@pytest.fixture(scope="module")
def proc_run(space, batches):
    """The same stream through the supervised process pool.

    Separate from ``runs`` so the fast tier never spawns processes;
    only the proc-marked tests below pull this fixture in.
    """
    ev = ProcessEvaluator(make_surrogate(space), AGENT_ID,
                          config=ProcConfig(workers=3))
    return ev, drive_inline(ev, space, batches)


@pytest.mark.proc
class TestProcessBackendParity:
    """Deterministic mode: bit-identical rewards, fingerprints, and
    accounting across the process boundary — retries and worker
    scheduling may reorder completions, never change values."""

    def test_identical_rewards_per_batch(self, runs, proc_run):
        _, serial_rewards = runs["serial"]
        _, rewards = proc_run
        for i, (a, b) in enumerate(zip(serial_rewards, rewards)):
            assert np.array_equal(a, b), f"process batch {i} diverged"

    def test_identical_fingerprints(self, space, batches, runs, proc_run):
        _, serial_rewards = runs["serial"]
        _, rewards = proc_run
        assert stream_digest(space, batches, serial_rewards) == \
            stream_digest(space, batches, rewards)

    def test_identical_broker_accounting(self, runs, proc_run):
        serial, _ = runs["serial"]
        ev, _ = proc_run
        assert (serial.num_submitted, serial.num_cache_hits,
                serial.num_failed) == (ev.num_submitted, ev.num_cache_hits,
                                       ev.num_failed)
        assert sorted(k for k, _ in serial.cache.snapshot()) == \
            sorted(k for k, _ in ev.cache.snapshot())
        assert ev.last_batch_all_cached is True

    def test_no_supervision_interventions(self, proc_run):
        """A fault-free run must not trip any supervision machinery."""
        ev, _ = proc_run
        stats = ev.stats()
        assert stats["worker_crashes"] == 0
        assert stats["worker_timeouts"] == 0
        assert stats["respawns"] == 0
        assert stats["quarantined"] == 0
        assert stats["inline_evals"] == 0


class _StubLoop:
    """The slice of the agent loop a proposer reads during propose /
    observe: a seeded rng and the batch size."""

    def __init__(self, rng, batch, agent_id=AGENT_ID):
        self.rng = rng
        self.batch = batch
        self.agent_id = agent_id


@pytest.fixture(scope="module")
def proposer_batches(space):
    """A batch stream shaped by the real AMBS and evolution proposers
    instead of uniform draws: constant-liar picks can repeat rows
    *inside* one batch and mutations cluster around incumbents, so the
    cache path is exercised very differently from the random stream."""
    proposers = (
        AmbsProposer.build(SearchConfig(method="ambs"), space, None),
        EvolutionProposer.build(
            SearchConfig(method="evolution", population_size=6,
                         tournament_size=2), space, None),
    )
    out = []
    with SerialEvaluator(make_surrogate(space), AGENT_ID) as ev:
        for proposer in proposers:
            loop = _StubLoop(np.random.default_rng(9), BATCH)
            for _ in range(3):
                actions = proposer.propose(loop)
                archs = [space.decode(row) for row in actions]
                ev.add_eval_batch(archs)
                ev.wait_all()
                rewards = aligned_rewards(archs, ev.get_finished_evals())
                list(proposer.observe(loop, actions, rewards))
                out.append(actions)
    return out


class TestProposerBatchParity:
    """The backend-parity contract holds for proposer-shaped streams,
    not just uniform random ones."""

    def test_identical_rewards_and_fingerprints(self, space,
                                                proposer_batches):
        serial = drive_inline(
            SerialEvaluator(make_surrogate(space), AGENT_ID),
            space, proposer_batches)
        thread = drive_inline(
            ThreadEvaluator(make_surrogate(space), AGENT_ID,
                            max_workers=3),
            space, proposer_batches)
        _, balsam = drive_balsam(space, proposer_batches)
        for name, rewards in (("thread", thread), ("balsam", balsam)):
            for i, (a, b) in enumerate(zip(serial, rewards)):
                assert np.array_equal(a, b), f"{name} batch {i} diverged"
        assert stream_digest(space, proposer_batches, serial) == \
            stream_digest(space, proposer_batches, thread) == \
            stream_digest(space, proposer_batches, balsam)

    def test_batches_stay_inside_the_space(self, space, proposer_batches):
        dims = np.array(space.action_dims)
        assert len(proposer_batches) == 6
        for b in proposer_batches:
            assert b.shape == (BATCH, len(dims))
            assert np.all((0 <= b) & (b < dims))


class TestBackendParity:
    def test_identical_rewards_per_batch(self, runs):
        _, serial_rewards = runs["serial"]
        for name in ("thread", "balsam"):
            _, rewards = runs[name]
            for i, (a, b) in enumerate(zip(serial_rewards, rewards)):
                assert np.array_equal(a, b), f"{name} batch {i} diverged"

    def test_identical_fingerprints(self, space, batches, runs):
        digests = {name: stream_digest(space, batches, rewards)
                   for name, (_, rewards) in runs.items()}
        assert digests["serial"] == digests["thread"] == digests["balsam"]

    def test_identical_broker_accounting(self, runs):
        counters = {name: (ev.num_submitted, ev.num_cache_hits,
                           ev.num_failed)
                    for name, (ev, _) in runs.items()}
        assert counters["serial"] == counters["thread"] == counters["balsam"]
        # the repeated batch must have been answered from the cache
        assert counters["serial"][1] >= BATCH

    def test_identical_cache_tallies(self, runs):
        tallies = {name: sorted(key for key, _ in ev.cache.snapshot())
                   for name, (ev, _) in runs.items()}
        assert tallies["serial"] == tallies["thread"] == tallies["balsam"]

    def test_all_cached_flag_parity(self, runs):
        flags = {name: ev.last_batch_all_cached
                 for name, (ev, _) in runs.items()}
        assert flags["serial"] == flags["thread"] == flags["balsam"] is True
