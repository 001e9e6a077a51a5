"""Thread-pool evaluator backend.

§4 describes evaluator backends "ranging from lightweight threads to
massively parallel jobs using a workflow system".  This is the
lightweight-threads end: reward estimations run in a
ThreadPoolExecutor, ``get_finished_evals`` is non-blocking (it drains
whatever completed since the last call), and ``wait_all`` provides the
per-agent batch barrier the search loop needs.

numpy releases the GIL inside BLAS kernels, so real-training reward
models get genuine overlap on multi-core machines.

Everything but the pool and the pending-future set lives in
:class:`~repro.evaluator.base.Evaluator`: pool threads run its guarded
reward call, and the outcomes are delivered on the caller's thread.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor, wait

from ..events import EventSink
from ..nas.arch import Architecture
from ..rewards.base import RewardModel
from .base import Evaluator

__all__ = ["ThreadEvaluator"]


class ThreadEvaluator(Evaluator):
    def __init__(self, reward_model: RewardModel, agent_id: int = 0,
                 max_workers: int = 4, use_cache: bool = True,
                 clock=time.monotonic, sink: EventSink | None = None) -> None:
        super().__init__(reward_model, agent_id=agent_id,
                         use_cache=use_cache, clock=clock, sink=sink)
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self._pending: list[tuple[Architecture, float, Future]] = []

    def _start(self, arch: Architecture, submit_time: float) -> None:
        future = self._pool.submit(self._evaluate, arch)
        self._pending.append((arch, submit_time, future))

    def _poll(self) -> None:
        still_pending = []
        for arch, submit, future in self._pending:
            if future.done():
                self._deliver(arch, future.result(), submit)
            else:
                still_pending.append((arch, submit, future))
        self._pending = still_pending

    def wait_all(self, timeout: float | None = None) -> None:
        """Block until every submitted estimation has completed."""
        wait([f for _, _, f in self._pending], timeout=timeout)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
