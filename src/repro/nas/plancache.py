"""Isomorphism-keyed cache of compiled architecture plans.

At paper scale the same architectures are compiled over and over: every
agent re-derives plans the others already walked (the surrogate's reward
landscape funnels all agents toward the same region), and a converged
search resubmits one architecture thousands of times.  A
:class:`~repro.nas.builder.Plan` is a pure function of (structure,
choices, input shapes, head ops) and is never mutated after compilation
— ``materialize`` draws fresh weights each call — so plans can be shared
freely across agents and iterations.

The cache has two levels:

* an **exact** map from ``(space name, choice tuple)`` to the compiled
  plan — the common fast path (``hits``);
* a **canonical** map from :func:`plan_signature` — a topology hash
  invariant under node renaming — to the first plan compiled with that
  structure (``iso_hits``).  Distinct action sequences can decode to
  structurally identical networks (e.g. variable nodes whose option
  lists repeat an operation, or choices that only differ inside
  dead branches of the plan); the second level makes all of them alias
  one plan object, so downstream memoization and materialization warm
  up once per *structure*, not once per *action sequence*.

A plan also depends on the input shapes and head ops, which the exact
key leaves out: the cache refuses a space name under a second set.

Cache state stays out of checkpoint files: plans are recomputable, and
a resumed search recompiles what it needs, bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import weakref

from .builder import Plan, compile_architecture
from .ops import Operation
from .space import Structure

__all__ = ["PlanCache", "SignatureResolver", "plan_signature"]

Shape = tuple[int, ...]


#: op token per live operation object, keyed by ``id``; each entry
#: leaves with its op, so spaces rebuilt per run accumulate nothing
_OP_TOKENS: dict[int, tuple[weakref.ref, str]] = {}


def _op_token(op: Operation | None) -> str | None:
    """Stable serialization of an operation, mirroring the identity that
    ``Operation.__eq__`` defines: type plus constructor state."""
    if op is None:
        return None
    key = id(op)
    hit = _OP_TOKENS.get(key)
    if hit is not None and hit[0]() is op:
        return hit[1]
    state = ",".join(f"{k}={v!r}" for k, v in sorted(op.__dict__.items()))
    token = f"{type(op).__name__}({state})"
    _OP_TOKENS[key] = (
        weakref.ref(op, lambda _ref: _OP_TOKENS.pop(key, None)), token)
    return token


def plan_signature(plan: Plan) -> str:
    """Canonical topology hash of a plan, invariant under node renaming.

    Nodes are renamed by their (topological) emission order and inputs
    by sorted name, so two plans are assigned the same signature exactly
    when they are the same DAG of the same operations over the same
    shapes — regardless of which action sequence produced them.  Plans
    are never mutated after compilation, so the signature is memoized on
    the plan, outside the dataclass fields ``Plan.__eq__`` compares.
    """
    sig = getattr(plan, "_signature", None)
    if sig is not None:
        return sig
    rename = {name: f"i{k}" for k, name in enumerate(sorted(plan.input_shapes))}
    for idx, node in enumerate(plan.nodes):
        rename[node.name] = f"n{idx}"
    payload = {
        "inputs": [[rename[name], list(plan.input_shapes[name])]
                   for name in sorted(plan.input_shapes)],
        "nodes": [[n.kind, [rename[i] for i in n.inputs], list(n.out_shape),
                   n.params, _op_token(n.op),
                   rename[n.share_of] if n.share_of else None]
                  for n in plan.nodes],
        "output": rename[plan.output],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    plan._signature = sig = hashlib.sha256(blob).hexdigest()
    return sig


class _ContextMismatch(ValueError):
    """A space looked up under other input shapes or head ops."""


def _context(shapes, head_ops) -> tuple:
    return {k: tuple(v) for k, v in shapes.items()}, list(head_ops or ())


class SignatureResolver:
    """Memoized ``architecture -> plan_signature`` mapping for one space.

    The isomorphism signature is the canonical identity of an
    architecture: distinct action sequences that compile to the same DAG
    share one signature.  Both the tabular benchmark
    (:mod:`repro.bench`) and its :class:`~repro.rewards.tabular.
    TabularReward` key their rows by it, so "which table row does this
    architecture belong to" is answered here, once — not re-derived with
    raw ``(space, choices)`` keys in each consumer.

    Compiles go through an optional shared :class:`PlanCache`; resolved
    signatures are memoized per choice tuple, so repeated lookups of the
    same architecture (a converged search hammering one arch) are pure
    dict reads.
    """

    def __init__(self, structure: Structure,
                 input_shapes: dict[str, Shape], head_ops=None,
                 plan_cache: "PlanCache | None" = None) -> None:
        self.structure = structure
        self.input_shapes = dict(input_shapes)
        self.head_ops = None if head_ops is None else list(head_ops)
        self.plan_cache = plan_cache
        self._memo: dict[tuple[int, ...], str] = {}

    def _compile(self, choices) -> Plan:
        if self.plan_cache is not None:
            return self.plan_cache.get_or_compile(
                self.structure, choices, self.input_shapes, self.head_ops)
        return compile_architecture(self.structure, choices,
                                    self.input_shapes, self.head_ops)

    def signature(self, arch) -> str:
        """Canonical signature of ``arch``; raises on an architecture
        that does not compile (invalid in this space)."""
        space, choices = arch.key
        if space != self.structure.name:
            raise ValueError(
                f"architecture of space {space!r} resolved against "
                f"{self.structure.name!r}")
        sig = self._memo.get(choices)
        if sig is None:
            if len(self._memo) > 500_000:     # bound memory at scale
                self._memo.clear()
            sig = plan_signature(self._compile(choices))
            self._memo[choices] = sig
        return sig

    def try_signature(self, arch) -> str | None:
        """Like :meth:`signature` but ``None`` for architectures that
        fail to compile — the uniform "invalid architecture" signal the
        reward models map to ``FAILURE_REWARD``."""
        try:
            return self.signature(arch)
        except _ContextMismatch:
            raise       # a miswired cache, not an invalid architecture
        except (ValueError, KeyError, FloatingPointError, OverflowError):
            return None


class PlanCache:
    """Shared compile cache; see the module docstring for the design.

    One instance is shared by every agent of a search (plans are
    immutable, so sharing is safe); the search runtime attaches it to
    the reward model via
    :meth:`~repro.rewards.base.RewardModel.set_plan_cache`.
    """

    def __init__(self, max_entries: int = 100_000) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._plans: dict[tuple, Plan] = {}
        self._by_sig: dict[str, Plan] = {}
        #: exact-key lookups answered without compiling
        self.hits = 0
        #: lookups that had to compile
        self.misses = 0
        #: compiles whose plan turned out isomorphic to a cached one and
        #: was aliased to it (subset of ``misses``)
        self.iso_hits = 0
        #: space name -> the (input shapes, head ops) it was compiled for
        self._bound: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._plans), "unique_plans": len(self._by_sig),
                "hits": self.hits, "misses": self.misses,
                "iso_hits": self.iso_hits}

    def clear(self) -> None:
        self._plans.clear()
        self._by_sig.clear()
        self._bound.clear()

    def _bind(self, name: str, input_shapes, head_ops) -> None:
        """Record the context ``name`` is first compiled with; a lookup
        with another would be handed plans compiled for the first."""
        bound = self._bound.setdefault(name, (input_shapes, head_ops))
        if _context(*bound) != _context(input_shapes, head_ops):
            raise _ContextMismatch(
                f"plan cache holds {name!r} plans for {_context(*bound)}; "
                f"other input shapes or head ops need their own cache")

    # -- the one lookup path -------------------------------------------
    def get_or_compile(self, structure: Structure, choices,
                       input_shapes: dict[str, Shape],
                       head_ops=None) -> Plan:
        """The cached equivalent of
        :func:`~repro.nas.builder.compile_architecture`.

        Compile errors (invalid architectures) propagate and are never
        cached, so a failing architecture stays re-attemptable — the
        same rule the evaluator applies to failure rewards.
        """
        # identical objects compare equal without a deep comparison
        if self._bound.get(structure.name) != (input_shapes, head_ops):
            self._bind(structure.name, input_shapes, head_ops)
        key = (structure.name, tuple(int(c) for c in choices))
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = compile_architecture(structure, choices, input_shapes,
                                    head_ops)
        if len(self._plans) >= self.max_entries:  # bound memory at scale
            self.clear()
            self._bind(structure.name, input_shapes, head_ops)
        sig = plan_signature(plan)
        canonical = self._by_sig.get(sig)
        if canonical is not None:
            plan = canonical
            self.iso_hits += 1
        else:
            self._by_sig[sig] = plan
        self._plans[key] = plan
        return plan
