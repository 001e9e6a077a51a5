"""Golden-file test pinning the checkpoint v1 JSON wire format.

The schema (recursive key -> type-name mapping, values elided) of a
deterministic checkpoint is pinned in ``tests/golden/``.  Renaming,
removing, or re-typing a field changes the schema and fails this test —
which is the point: v1 checkpoints on disk must stay loadable, so any
wire-format change requires bumping ``FORMAT_VERSION`` and updating the
golden file deliberately.

Regenerate (after an intentional format bump) with::

    PYTHONPATH=src python tests/test_search_checkpoint_golden.py
"""

import json
from pathlib import Path

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import get_space
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import SearchConfig
from repro.search.checkpoint import FORMAT_VERSION, SearchCheckpoint
from repro.search.runner import NasSearch

GOLDEN = Path(__file__).parent / "golden" / "checkpoint_v1_schema.json"


def schema_of(obj):
    """Recursive key -> type-name schema; lists collapse to their first
    element's schema (the formats here are homogeneous)."""
    if isinstance(obj, dict):
        return {key: schema_of(value) for key, value in sorted(obj.items())}
    if isinstance(obj, list):
        return ["empty"] if not obj else [schema_of(obj[0])]
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "bool"
    if isinstance(obj, int):
        return "int"
    if isinstance(obj, float):
        return "float"
    if isinstance(obj, str):
        return "str"
    return type(obj).__name__


def make_checkpoint() -> SearchCheckpoint:
    """A deterministic mid-run checkpoint exercising every field:
    populated records, live boundaries, cache entries."""
    space = get_space("combo-small", scale=0.05)
    surrogate = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                                TrainingCostModel.combo_paper(),
                                epochs=1, train_fraction=0.1,
                                timeout=600.0, seed=7)
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(32, 4, 3),
                       wall_time=30 * 60.0, seed=1,
                       checkpoint_every_records=87)
    search = NasSearch(space, surrogate, cfg)
    search.run()
    # a mid-run capture: agents in flight, boundaries + caches populated
    return search.checkpoints[len(search.checkpoints) // 2]


def test_checkpoint_v1_schema_is_pinned():
    ckpt = make_checkpoint()
    wire = json.loads(json.dumps(ckpt.to_json()))
    assert wire["version"] == FORMAT_VERSION == 1
    golden = json.loads(GOLDEN.read_text())
    assert schema_of(wire) == golden, (
        "checkpoint wire format changed; if intentional, bump "
        "FORMAT_VERSION and regenerate tests/golden/ (see module "
        "docstring)")


def test_checkpoint_schema_exercises_all_sections():
    """The pinned snapshot must actually cover the interesting parts —
    a vacuous golden (empty records/agents) would pin nothing."""
    ckpt = make_checkpoint()
    wire = ckpt.to_json()
    assert wire["records"], "no records captured"
    assert wire["agents"], "no agents captured"
    boundaries = [a["boundary"] for a in wire["agents"]
                  if a["boundary"] is not None]
    assert boundaries, "no live agent boundary captured"
    assert boundaries[0]["policy_flat"], "no policy parameters captured"
    assert any(a["cache"] for a in wire["agents"]), "no cache entries"


def test_golden_round_trips_through_loader():
    """What the golden pins is exactly what from_json accepts."""
    ckpt = make_checkpoint()
    restored = SearchCheckpoint.from_json(
        json.loads(json.dumps(ckpt.to_json())))
    assert restored.fingerprint() == ckpt.fingerprint()
    assert len(restored.records) == len(ckpt.records)
    assert len(restored.agents) == len(ckpt.agents)


if __name__ == "__main__":  # regenerate the golden file
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    wire = json.loads(json.dumps(make_checkpoint().to_json()))
    GOLDEN.write_text(json.dumps(schema_of(wire), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
