"""Golden-file tests pinning the checkpoint JSON wire formats.

The schema (recursive key -> type-name mapping, values elided) of a
deterministic checkpoint is pinned in ``tests/golden/`` for both
versions: version 2, which :meth:`SearchCheckpoint.to_json` writes and
which leaves the records and caches to the journal, and version 1,
which embedded them and which earlier runs left on disk.  Renaming,
removing, or re-typing a field changes a schema and fails these tests —
which is the point: checkpoints on disk must stay loadable, so any
wire-format change requires bumping ``FORMAT_VERSION`` and adding a
golden file deliberately.  The v1 file is frozen; the v1 form is built
by ``checkpoint_v1_json`` in ``tests/_checkpoint_common.py``.

Regenerate the v2 golden (after an intentional format change) with::

    PYTHONPATH=src python tests/test_search_checkpoint_golden.py
"""

import json
from pathlib import Path

from _checkpoint_common import (checkpoint_fingerprint, checkpoint_v1_json,
                                round_trip)

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import get_space
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import SearchConfig
from repro.search.checkpoint import FORMAT_VERSION, SearchCheckpoint
from repro.search.runner import NasSearch

GOLDEN_V1 = Path(__file__).parent / "golden" / "checkpoint_v1_schema.json"
GOLDEN_V2 = Path(__file__).parent / "golden" / "checkpoint_v2_schema.json"


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
    """The version-1 form (records and caches embedded) still matches
    the frozen v1 golden, and decodes."""
    ckpt = make_checkpoint()
    wire = checkpoint_v1_json(ckpt)
    assert wire["version"] == 1
    golden = json.loads(GOLDEN_V1.read_text())
    assert schema_of(wire) == golden, "the v1 wire format is frozen"
    restored = SearchCheckpoint.from_json(wire)
    assert checkpoint_fingerprint(restored) == checkpoint_fingerprint(ckpt)
    assert [a.cache_entries for a in restored.agents] == \
        [a.cache_entries for a in ckpt.agents]


def test_checkpoint_v2_schema_is_pinned():
    ckpt = make_checkpoint()
    wire = json.loads(json.dumps(ckpt.to_json()))
    assert wire["version"] == FORMAT_VERSION == 2
    golden = json.loads(GOLDEN_V2.read_text())
    assert schema_of(wire) == golden, (
        "checkpoint wire format changed; if intentional, bump "
        "FORMAT_VERSION and add a golden file (see module docstring)")


def test_v2_is_v1_without_records_and_caches():
    """Version 2 holds O(agents) state: exactly version 1's keys less
    the records and every agent's cache."""
    v1 = json.loads(GOLDEN_V1.read_text())
    del v1["records"]
    del v1["agents"][0]["cache"]
    assert json.loads(GOLDEN_V2.read_text()) == v1


def test_checkpoint_schema_exercises_all_sections():
    """The pinned snapshot must actually cover the interesting parts —
    a vacuous golden (empty records/agents) would pin nothing."""
    ckpt = make_checkpoint()
    wire = checkpoint_v1_json(ckpt)
    assert wire["records"], "no records captured"
    assert wire["agents"], "no agents captured"
    boundaries = [a["boundary"] for a in wire["agents"]
                  if a["boundary"] is not None]
    assert boundaries, "no live agent boundary captured"
    assert boundaries[0]["policy_flat"], "no policy parameters captured"
    assert any(a["cache"] for a in wire["agents"]), "no cache entries"


def test_golden_round_trips_through_loader():
    """What the v2 golden pins is exactly what from_json accepts; the
    records and caches it leaves out come back empty, for the journal
    to fill in."""
    ckpt = make_checkpoint()
    restored = SearchCheckpoint.from_json(
        json.loads(json.dumps(ckpt.to_json())))
    assert restored.records == []
    assert all(a.cache_entries == [] for a in restored.agents)
    assert len(restored.agents) == len(ckpt.agents)
    assert json.dumps(restored.to_json()) == json.dumps(ckpt.to_json())
    assert round_trip(restored).to_json() == restored.to_json()


if __name__ == "__main__":  # regenerate the v2 golden file
    GOLDEN_V2.parent.mkdir(parents=True, exist_ok=True)
    wire = json.loads(json.dumps(make_checkpoint().to_json()))
    GOLDEN_V2.write_text(json.dumps(schema_of(wire), indent=2) + "\n")
    print(f"wrote {GOLDEN_V2}")
