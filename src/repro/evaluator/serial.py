"""In-process evaluator backend (the "laptop" end of the scale).

Evaluations run immediately and synchronously on ``add_eval_batch``;
``get_finished_evals`` drains the completion queue.  Used by the
examples and by real-training searches, where the reward model's
duration is genuine wall time.

Everything but the dispatch policy (run it now, inline) lives in
:class:`~repro.evaluator.base.Evaluator`, including the guarded reward
call that turns an exception into a ``FAILURE_REWARD`` record.
"""

from __future__ import annotations

from ..nas.arch import Architecture
from .base import Evaluator

__all__ = ["SerialEvaluator"]


class SerialEvaluator(Evaluator):
    def _start(self, arch: Architecture, submit_time: float) -> None:
        self._deliver(arch, self._evaluate(arch), submit_time)
