"""The census check (tools/check_census.py) on a synthetic tree, and on
the repository itself."""

import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from check_census import main, unread  # noqa: E402

MODULE = '''
def used():
    return Box().kept()


def unused():
    return helper()


def helper():
    return 1


def recursive(n):
    return recursive(n - 1) if n else 0


def via_makefile():
    return 0


class Box:
    def kept(self):
        return self.shared()

    def shared(self):
        return 1

    def orphan(self):
        return 2

    @property
    def size(self):
        return 3

    def exempt(self):
        return 4


class Other:
    def shared(self):
        return 0

    def patched(self):
        return 5
'''

READER = '''
import repro.mod

PATCH = "repro.mod:Other.patched"
print(getattr(repro.mod.Box(), "size"), repro.mod.used())
'''


def write_tree(root: Path) -> None:
    files = {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": MODULE,
        "tools/reader.py": READER,
        # tests do not count as readers
        "tests/test_mod.py": "from repro.mod import Box, unused\n"
                             "unused(), Box().orphan()\n",
        "Makefile": "run:\n\tpython -c 'from repro.mod import "
                    "via_makefile; via_makefile()'\n",
        "DESIGN.md": "## What the census keeps, and why\n\n"
                     "* `Box.exempt`: a test helper.\n\n## Next\n\n"
                     "* `Box.orphan` is outside the section.\n",
    }
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_flags_every_unread_name(tmp_path):
    write_tree(tmp_path)
    assert [d.qualname for d in unread(tmp_path)] == [
        "unused",           # only a test calls it
        "helper",           # only an unread function calls it
        "recursive",        # only its own body calls it
        "Box.orphan",       # only a test calls it
        "Other.shared",     # `self.shared()` in Box is Box's
    ]


def test_exit_status_and_report(tmp_path, capsys):
    write_tree(tmp_path)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:6: unused is never read" in out
    assert "census: 5 unread name(s)" in out
    (tmp_path / "src/repro/mod.py").write_text(textwrap.dedent('''
        def used():
            return 1
    '''))
    assert main([str(tmp_path)]) == 0


def test_repository_passes(capsys):
    assert main([str(ROOT)]) == 0, capsys.readouterr().out
