"""Search-space graph structure: Block, Cell, Structure (§3.1).

A :class:`Structure` is ``{(I⁰..Iᴾ⁻¹), (C⁰..Cᴷ⁻¹), R_out}``: a tuple of
named inputs, a tuple of cells, and an output rule.  A :class:`Cell`
holds blocks plus its output rule (concatenation of non-empty block
outputs).  A :class:`Block` is a DAG of nodes: sequential feed-forward by
default, with optional extra intra-block edges (used by Uno's residual
Add links).

The structure's ordered list of variable nodes defines the agent's action
sequence; :meth:`Structure.size` is the exact cardinality of the
architecture space (the product of per-node choice counts), which for the
paper's small spaces reproduces §3.1's numbers exactly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .nodes import ConstantNode, MirrorNode, Node, VariableNode
from .ops import ConnectOp

__all__ = ["Block", "Cell", "Structure"]


class Block:
    """A DAG of nodes; the basic unit of a cell.

    Parameters
    ----------
    name:
        Block identifier, unique within its cell.
    inputs:
        Tensor references this block reads (structure input names, cell
        names, or ``"Ci.Bj.Nk"`` node references).  Multiple references
        are concatenated before the first node.
    """

    def __init__(self, name: str, inputs: list[str]) -> None:
        if not inputs:
            raise ValueError(f"block {name!r} needs at least one input")
        self.name = name
        self.inputs = list(inputs)
        self.nodes: list[Node] = []
        #: extra intra-block edges: node index -> indices of *earlier*
        #: nodes whose outputs are additional inputs (merge nodes only).
        self.extra_inputs: dict[int, list[int]] = {}

    def add_node(self, node: Node, extra_inputs: list[int] | None = None) -> "Block":
        idx = len(self.nodes)
        if extra_inputs:
            for j in extra_inputs:
                if not 0 <= j < idx:
                    raise ValueError(
                        f"extra input {j} of node {idx} must reference an "
                        f"earlier node")
            self.extra_inputs[idx] = list(extra_inputs)
        self.nodes.append(node)
        return self

    def validate(self) -> None:
        for i, node in enumerate(self.nodes):
            if isinstance(node, VariableNode):
                if node.num_ops == 0:
                    raise ValueError(f"variable node {node.name!r} has no ops")
                has_connect = any(isinstance(op, ConnectOp) for op in node.ops)
                if has_connect and (len(self.nodes) > 1):
                    raise ValueError(
                        f"Connect node {node.name!r} must be the only node "
                        f"of its block")
            if i in self.extra_inputs:
                op = node.op if isinstance(node, ConstantNode) else None
                if op is None or not op.is_merge:
                    raise ValueError(
                        f"node {node.name!r} has extra inputs but is not a "
                        f"constant merge node")

    def __repr__(self) -> str:
        return f"Block({self.name!r}, nodes={len(self.nodes)})"


class Cell:
    """A set of blocks whose outputs are concatenated."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: list[Block] = []

    def add_block(self, block: Block) -> "Cell":
        if any(b.name == block.name for b in self.blocks):
            raise ValueError(f"duplicate block name {block.name!r} in {self.name!r}")
        self.blocks.append(block)
        return self

    def __repr__(self) -> str:
        return f"Cell({self.name!r}, blocks={len(self.blocks)})"


class Structure:
    """A complete search space: inputs, cells, and an output rule.

    ``output_sources`` selects what feeds the final output concatenation:
    ``"all_cells"`` (Combo), ``"last_cell"`` (Uno, NT3), or an explicit
    list of tensor references.
    """

    def __init__(self, name: str, inputs: list[str],
                 output_sources: str | list[str] = "last_cell") -> None:
        if not inputs:
            raise ValueError("structure needs at least one input")
        if len(set(inputs)) != len(inputs):
            raise ValueError("duplicate input names")
        self.name = name
        self.inputs = list(inputs)
        self.cells: list[Cell] = []
        self.output_sources = output_sources

    def add_cell(self, cell: Cell) -> "Structure":
        if any(c.name == cell.name for c in self.cells):
            raise ValueError(f"duplicate cell name {cell.name!r}")
        self.cells.append(cell)
        return self

    # ------------------------------------------------------------------
    # action space
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[tuple[Cell, Block, int, Node]]:
        """All nodes in deterministic (cell, block, position) order."""
        for cell in self.cells:
            for block in cell.blocks:
                for idx, node in enumerate(block.nodes):
                    yield cell, block, idx, node

    @property
    def variable_nodes(self) -> list[VariableNode]:
        """Decision points, in action order."""
        return [node for cell in self.cells for block in cell.blocks
                for node in block.nodes if isinstance(node, VariableNode)]

    @property
    def num_actions(self) -> int:
        return len(self.variable_nodes)

    @property
    def action_dims(self) -> list[int]:
        """Choice count per decision, in action order."""
        return [n.num_ops for n in self.variable_nodes]

    @property
    def size(self) -> int:
        """Exact cardinality of the architecture space."""
        total = 1
        for n in self.variable_nodes:
            total *= n.num_ops
        return total

    # ------------------------------------------------------------------
    # architectures
    # ------------------------------------------------------------------
    def validate(self) -> None:
        known = set(self.inputs)
        for cell in self.cells:
            if not cell.blocks:
                raise ValueError(f"cell {cell.name!r} has no blocks")
            for block in cell.blocks:
                block.validate()
                for ref in block.inputs:
                    if ref not in known:
                        raise ValueError(
                            f"block {cell.name}.{block.name} references "
                            f"unknown tensor {ref!r}")
                for idx, node in enumerate(block.nodes):
                    known.add(f"{cell.name}.{block.name}.{node.name}")
            known.add(cell.name)
        if isinstance(self.output_sources, list):
            for ref in self.output_sources:
                if ref not in known:
                    raise ValueError(f"unknown output source {ref!r}")
        # mirror targets must be nodes of this structure
        all_nodes = set(id(n) for _, _, _, n in self.iter_nodes())
        for _, _, _, node in self.iter_nodes():
            if isinstance(node, MirrorNode) and id(node.target) not in all_nodes:
                raise ValueError(
                    f"mirror node {node.name!r} targets a node outside "
                    f"this structure")

    def decode(self, choices) -> "Architecture":
        """Turn an action sequence into an :class:`Architecture`."""
        from .arch import Architecture
        choices = tuple(int(c) for c in choices)
        nodes = self.variable_nodes
        if len(choices) != len(nodes):
            raise ValueError(
                f"expected {len(nodes)} choices, got {len(choices)}")
        for c, n in zip(choices, nodes):
            n.op_at(c)  # raises IndexError when out of range
        return Architecture(self.name, choices)

    def random_architecture(self, rng: np.random.Generator) -> "Architecture":
        return self.decode([rng.integers(n.num_ops)
                            for n in self.variable_nodes])

    def describe(self, choices) -> list[str]:
        """Human-readable list of per-node chosen operations."""
        arch = self.decode(choices)
        out = []
        it = iter(arch.choices)
        for cell, block, _, node in self.iter_nodes():
            path = f"{cell.name}.{block.name}.{node.name}"
            if isinstance(node, VariableNode):
                out.append(f"{path}: {node.op_at(next(it)).name}")
            elif isinstance(node, ConstantNode):
                out.append(f"{path}: {node.op.name} [constant]")
            else:
                out.append(f"{path}: mirror of {node.target.name}")
        return out

    def __repr__(self) -> str:
        return (f"Structure({self.name!r}, inputs={len(self.inputs)}, "
                f"cells={len(self.cells)}, size={self.size:.4g})")
