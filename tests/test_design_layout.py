"""DESIGN.md's source layout block lists exactly the modules of src/repro,
and its Settings tables list exactly the fields of the config classes."""

import dataclasses
import re
from pathlib import Path

from repro.bench.sweep import SweepConfig
from repro.evaluator.process import ProcConfig
from repro.health.guards import GuardConfig
from repro.hpc.faults import FaultConfig
from repro.rl.ppo import PPOConfig
from repro.search.base import SearchConfig

ROOT = Path(__file__).resolve().parents[1]

#: every config class DESIGN.md's "Settings" section must table
CONFIG_CLASSES = (SearchConfig, GuardConfig, ProcConfig, FaultConfig,
                  PPOConfig, SweepConfig)


def _layout_block() -> list[str]:
    """The ``src/repro/`` lines of the first code block under
    DESIGN.md's "Source layout" heading."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## Source layout", 1)[1]
    block = section.split("```", 2)[1].splitlines()
    start = block.index("src/repro/")
    lines = []
    for line in block[start + 1:]:
        if line and not line.startswith(" "):
            break               # the next top-level directory
        lines.append(line)
    return lines


def _expand(token: str) -> list[str]:
    """``spaces/{combo,uno}.py`` -> ``spaces/combo.py``, ``spaces/uno.py``."""
    m = re.fullmatch(r"(.*)\{(.*)\}(.*)", token)
    if m is None:
        return [token]
    head, alts, tail = m.groups()
    return [head + alt + tail for alt in alts.split(",")]


def _listed_modules() -> set[str]:
    """Package lines start at indent 2 (``nn/  a.py b.py``, or bare
    top-level files); deeper-indented lines continue the package above.
    Package ``__init__.py`` files are implied by the directory."""
    listed, package = set(), ""
    for line in _layout_block():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(line) - len(line.lstrip()) == 2:
            package = tokens[0] if tokens[0].endswith("/") else ""
            if package:
                tokens = tokens[1:]
        for token in tokens:
            listed.update(package + name for name in _expand(token))
    return listed


def test_layout_matches_src():
    src = ROOT / "src" / "repro"
    actual = {str(p.relative_to(src)) for p in src.rglob("*.py")
              if p.name != "__init__.py"}
    listed = _listed_modules()
    assert sorted(actual - listed) == [], "modules missing from DESIGN.md"
    assert sorted(listed - actual) == [], "DESIGN.md lists missing files"


def _settings_tables() -> dict[str, list[str]]:
    """``### `Class``` heading -> first-column names of its table, from
    DESIGN.md's "Settings" section."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    tables: dict[str, list[str]] = {}
    for block in section.split("\n### ")[1:]:
        heading, _, body = block.partition("\n")
        rows = [line for line in body.splitlines() if line.startswith("| `")]
        tables[heading.strip("` ")] = [
            row.split("|")[1].strip().strip("`") for row in rows]
    return tables


def test_settings_tables_match_config_fields():
    tables = _settings_tables()
    assert sorted(tables) == sorted(c.__name__ for c in CONFIG_CLASSES)
    for cls in CONFIG_CLASSES:
        fields = [f.name for f in dataclasses.fields(cls)]
        assert tables[cls.__name__] == fields, cls.__name__
