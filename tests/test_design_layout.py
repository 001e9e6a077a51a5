"""DESIGN.md's source layout block lists exactly the modules of src/repro."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
