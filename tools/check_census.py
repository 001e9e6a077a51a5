#!/usr/bin/env python
"""Census check: every public name in ``src/`` is read somewhere.

A public top-level function or class, or a public method or property,
of ``src/`` fails the check when no code reads it outside its own
definition.  The readers are ``src/``, ``benchmarks/``, ``examples/``,
``perfbench/``, ``tools/`` and the Makefile; tests do not count, and
neither do imports, so a package re-export is not a read.  A read inside
a definition the check finds unread does not count either, so a name
that only an unread one uses fails with it.

A read is a name (``foo``), an attribute (``x.foo``), the string of a
``getattr``/``hasattr`` call, a ``"module:Class.name"`` patch target,
or a word of the Makefile.  An attribute read ``x.foo`` counts for the
classes ``x`` can hold, and their bases and subclasses: ``self`` or
``cls`` in a class, a class name, a local assigned a class call, or an
attribute whose every assignment is a call of one class (or ``None``).
Otherwise it counts for every class that defines ``foo``.

Names DESIGN.md's "What the census keeps" section lists in backticks
(``Name`` or ``Class.name``) are exempt.  Run via ``make lint``:

    python tools/check_census.py [ROOT]

Exit status: 0 when every name is read, 1 with the unread ones listed.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

READERS = ("src", "benchmarks", "examples", "perfbench", "tools")
_PATCH_TARGET = re.compile(r"[\w.]+:([A-Za-z_][\w.]*)")
_KEPT = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)`")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(eq=False)
class Definition:
    """One public top-level name, or one public method of a class."""

    name: str
    cls: str | None           # the owning class of a method
    path: Path
    node: ast.AST

    @property
    def qualname(self) -> str:
        return self.name if self.cls is None else f"{self.cls}.{self.name}"


@dataclass
class Census:
    defs: list[Definition] = field(default_factory=list)
    #: (name, is a method) -> definitions
    index: dict[tuple[str, bool], list[Definition]] = field(
        default_factory=dict)
    #: parsed ``src/`` modules, read again as readers
    trees: dict[Path, ast.Module] = field(default_factory=dict)
    bases: dict[str, set[str]] = field(default_factory=dict)
    #: attribute name -> classes its assignments build (None: unknown)
    attr_types: dict[str, set[str] | None] = field(default_factory=dict)
    #: (candidate definitions, definitions enclosing the read)
    reads: list[tuple[list[Definition], frozenset]] = field(
        default_factory=list)

    def by_name(self, name: str, method: bool) -> list[Definition]:
        return self.index.get((name, method), [])

    def family(self, classes: set[str]) -> set[str]:
        """``classes`` with every base and subclass (by name)."""
        up = set(classes)
        while True:
            more = {b for c in up for b in self.bases.get(c, ())} - up
            if not more:
                break
            up |= more
        down = set(classes)
        while True:
            more = {c for c, bs in self.bases.items() if bs & down} - down
            if not more:
                return up | down
            down |= more


def _public(name: str) -> bool:
    return not name.startswith("_")


def collect_definitions(census: Census, src: Path) -> None:
    for path in sorted(src.rglob("*.py")):
        census.trees[path.resolve()] = ast.parse(path.read_text(), str(path))
    for path, tree in census.trees.items():
        for node in tree.body:
            if isinstance(node, (*_FUNCS, ast.ClassDef)) \
                    and _public(node.name):
                census.defs.append(Definition(node.name, None, path, node))
            if not isinstance(node, ast.ClassDef):
                continue
            census.bases[node.name] = {
                b.id if isinstance(b, ast.Name) else b.attr
                for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))}
            for item in node.body:
                if isinstance(item, _FUNCS) and _public(item.name):
                    census.defs.append(
                        Definition(item.name, node.name, path, item))
    for d in census.defs:
        census.index.setdefault((d.name, d.cls is not None), []).append(d)
    for tree in census.trees.values():  # every class is known by now
        _collect_attr_types(census, tree)


def _built_classes(census: Census, value) -> set[str] | None:
    """Classes an assigned expression builds: a class call, or either
    branch of a conditional that is one or ``None``; None if unknown."""
    if isinstance(value, ast.IfExp):
        left = _built_classes(census, value.body)
        right = _built_classes(census, value.orelse)
        return None if left is None or right is None else left | right
    if isinstance(value, ast.Constant) and value.value is None:
        return set()
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id in census.bases:
        return {value.func.id}
    return None


def _collect_attr_types(census: Census, tree) -> None:
    """Fold every attribute store into ``census.attr_types``: a plain
    assignment of a class call (or ``None``) adds its class, and any
    other store (another value, a tuple target, ``+=``) makes the
    attribute's type unknown."""
    built_by = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                built_by[id(target)] = _built_classes(census, node.value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            built = built_by.get(id(node))
            known = census.attr_types.get(node.attr, set())
            census.attr_types[node.attr] = (
                None if built is None or known is None else known | built)


class _Reader(ast.NodeVisitor):
    """Records every read in one file with its enclosing definitions."""

    def __init__(self, census: Census, owners: dict) -> None:
        self.census = census
        self.owners = owners            # def node -> Definition
        self.enclosing: list[Definition] = []
        self.cls: str | None = None
        self.locals: dict[str, set[str]] = {}

    def read(self, candidates: list[Definition]) -> None:
        if candidates:
            self.census.reads.append((candidates,
                                      frozenset(self.enclosing)))

    def _enter(self, node, cls=None):
        owner = self.owners.get(node)
        if owner is not None:
            self.enclosing.append(owner)
        saved = self.cls, self.locals
        if cls is not None:
            self.cls = cls
        if isinstance(node, _FUNCS):
            self.locals = {}
        self.generic_visit(node)
        self.cls, self.locals = saved
        if owner is not None:
            self.enclosing.pop()

    def visit_ClassDef(self, node):
        self._enter(node, cls=node.name)

    def visit_FunctionDef(self, node):
        self._enter(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        pass                            # an import is not a read

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        built = _built_classes(self.census, node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if built:
                    self.locals[target.id] = built
                else:
                    self.locals.pop(target.id, None)
        self.generic_visit(node)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Store):
            self.read(self.census.by_name(node.id, method=False))

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Store):
            return
        self.read(self.census.by_name(node.attr, method=False))
        self.read(self.methods(node.attr, self.types(node.value)))

    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "hasattr") \
                and len(node.args) >= 2 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            self.read(self.methods(node.args[1].value, None))

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            match = _PATCH_TARGET.fullmatch(node.value)
            if match:
                head, *rest = match.group(1).split(".")
                self.read(self.census.by_name(head, method=False))
                for name in rest:
                    self.read(self.methods(name, {head}))

    def methods(self, name: str, types: set[str] | None) -> list:
        candidates = self.census.by_name(name, method=True)
        if types:
            family = self.census.family(types)
            typed = [d for d in candidates if d.cls in family]
            if typed:
                return typed
        return candidates

    def types(self, expr) -> set[str] | None:
        """Classes ``expr`` can hold, or None when unknown."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.cls is not None:
                return {self.cls}
            if expr.id in self.locals:
                return self.locals[expr.id]
            return {expr.id} if expr.id in self.census.bases else None
        if isinstance(expr, ast.Attribute):
            return self.census.attr_types.get(expr.attr) or None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id == "super" and self.cls is not None:
                return {self.cls}
            return _built_classes(self.census, expr) or None
        return None


def collect_reads(census: Census, root: Path) -> None:
    owners = {d.node: d for d in census.defs}
    me = Path(__file__).resolve()
    for reader in READERS:
        for path in sorted((root / reader).rglob("*.py")):
            path = path.resolve()
            if path == me or "tests" in path.relative_to(
                    root.resolve()).parts:
                continue
            tree = census.trees.get(path) \
                or ast.parse(path.read_text(), str(path))
            _Reader(census, owners).visit(tree)
    makefile = root / "Makefile"
    if makefile.exists():
        for word in set(re.findall(r"\w+", makefile.read_text())):
            census.reads.append((census.by_name(word, method=False)
                                 + census.by_name(word, method=True),
                                 frozenset()))


def kept_names(root: Path) -> set[str]:
    """Backticked names under DESIGN.md's "What the census keeps"."""
    design = root / "DESIGN.md"
    if not design.exists():
        return set()
    text = design.read_text()
    if "## What the census keeps" not in text:
        return set()
    section = text.split("## What the census keeps", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(_KEPT.findall(section))


def unread(root: Path) -> list[Definition]:
    """Definitions no live code reads outside their own definition."""
    census = Census()
    collect_definitions(census, root / "src")
    collect_reads(census, root)
    dead: set[Definition] = set()
    while True:
        alive = {d for candidates, enclosing in census.reads
                 if not enclosing & dead
                 for d in candidates if d not in enclosing}
        newly = {d for d in census.defs if d not in alive} - dead
        if not newly:
            break
        dead |= newly
    kept = kept_names(root)
    return sorted((d for d in dead if d.qualname not in kept),
                  key=lambda d: (str(d.path), d.node.lineno))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else Path(__file__).parents[1]).resolve()
    found = unread(root)
    for d in found:
        print(f"{d.path.relative_to(root)}:{d.node.lineno}: "
              f"{d.qualname} is never read outside its definition")
    if found:
        print(f"census: {len(found)} unread name(s); delete them, or "
              f"list them under DESIGN.md's \"What the census keeps\"")
        return 1
    print("census: every public name in src/ is read")
    return 0


if __name__ == "__main__":
    sys.exit(main())
