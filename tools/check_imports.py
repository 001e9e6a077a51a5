#!/usr/bin/env python
"""Static import-cycle check over ``src/repro`` (stdlib only).

Builds the module-level import graph with :mod:`ast` — only imports
executed at import time count, so function-local (lazy) imports are
deliberately excluded — and fails with the offending strongly connected
components if any cycle exists.  Run via ``make lint`` (and from
``make smoke``) to keep the runtime seams acyclic:

    events ← evaluator ← search.proposer/hooks/loop ← search.runner

Exit status: 0 when acyclic, 1 with a cycle report otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT_PACKAGE = "repro"


def discover(src: Path) -> dict[str, Path]:
    """Map dotted module names to files under ``src/repro``."""
    modules: dict[str, Path] = {}
    for path in sorted((src / ROOT_PACKAGE).rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _module_level_statements(tree: ast.Module):
    """Statements executed at import time: module body, descending into
    class bodies and conditional/try blocks, but never function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)


def resolve(module: str, is_package: bool, node, known: set[str]):
    """Yield known in-package modules a statement imports."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            name = alias.name
            while name:
                if name in known:
                    yield name
                    break
                name = name.rpartition(".")[0]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
        else:
            # relative import: walk up from the importing module
            anchor = module.split(".")
            if not is_package:
                anchor = anchor[:-1]
            anchor = anchor[:len(anchor) - (node.level - 1)]
            base = ".".join(anchor + ([node.module] if node.module else []))
        if not base.startswith(ROOT_PACKAGE):
            return
        for alias in node.names:
            sub = f"{base}.{alias.name}"
            if sub in known:
                yield sub           # ``from pkg import submodule``
            elif base in known:
                yield base          # ``from module import symbol``


def build_graph(modules: dict[str, Path]) -> dict[str, set[str]]:
    known = set(modules)
    graph: dict[str, set[str]] = {m: set() for m in known}
    for module, path in modules.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        is_package = path.name == "__init__.py"
        for node in _module_level_statements(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in resolve(module, is_package, node, known):
                    if target != module:
                        graph[module].add(target)
    return graph


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCC; any component with >1 node (or a self-loop) is a cycle."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph[v]):
            if w not in index:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            if len(component) > 1 or v in graph[v]:
                cycles.append(sorted(component))

    sys.setrecursionlimit(10_000)
    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return cycles


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    modules = discover(src)
    if not modules:
        print(f"check_imports: no modules found under {src}", file=sys.stderr)
        return 1
    graph = build_graph(modules)
    cycles = find_cycles(graph)
    if cycles:
        print("check_imports: import cycles detected:", file=sys.stderr)
        for component in cycles:
            print("  " + " <-> ".join(component), file=sys.stderr)
        return 1
    edges = sum(len(v) for v in graph.values())
    print(f"check_imports: {len(modules)} modules, {edges} edges, no cycles")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
