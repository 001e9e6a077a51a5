"""Agent-local evaluation cache.

Each agent keeps its own cache of evaluated architectures ("a global
cache ... is not maintained because that would nullify the benefit of
agent-specific random weight initialization", §4).  A cache hit returns
the stored result instantly without occupying a worker node — the
mechanism behind the utilization decay of Figs. 5/6/9 and the
convergence-stop of §5.1 (the search halts when every agent only
generates cache hits).
"""

from __future__ import annotations

from ..nas.arch import Architecture
from ..rewards.base import EvalResult

__all__ = ["EvalCache"]


class EvalCache:
    """Maps architecture keys to results for one agent.

    Keys are the *exact* ``(space, choices)`` :attr:`Architecture.key
    <repro.nas.arch.Architecture.key>` — deliberately not the
    isomorphism signature: the same structure evaluated from a different
    action sequence draws different agent-specific weights, so exact
    keying is load-bearing for the paper's protocol (the signature-keyed
    store is the bench table, :mod:`repro.bench`).
    """

    def __init__(self) -> None:
        self._store: dict[tuple, EvalResult] = {}

    def get(self, arch: Architecture) -> EvalResult | None:
        return self._store.get(arch.key)

    def put(self, arch: Architecture, result: EvalResult) -> None:
        self._store[arch.key] = result

    def __contains__(self, arch: Architecture) -> bool:
        return arch.key in self._store

    # -- checkpoint support -------------------------------------------
    def snapshot(self, limit: int | None = None) -> list:
        """First ``limit`` (key, result) entries in insertion order.

        The store is insertion-ordered and append-only (re-putting a key
        stores an identical result), so "the cache as of iteration N" is
        exactly its first ``cache_len(N)`` entries: where loading a
        checkpoint generation cuts the cache it rebuilt from the journal
        with :meth:`put`.
        """
        items = list(self._store.items())
        return items if limit is None else items[:limit]

    def restore(self, entries: list) -> None:
        """Replace the store with checkpointed (key, result) entries."""
        self._store = dict(entries)

    def __len__(self) -> int:
        return len(self._store)
