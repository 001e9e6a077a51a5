"""Model-evaluation interface with several execution backends (§4)."""

from .balsam import BalsamEvaluator, BalsamJob, BalsamService
from .base import EvalRecord, Evaluator
from .cache import EvalCache
from .process import ProcConfig, ProcessEvaluator
from .serial import SerialEvaluator
from .thread import ThreadEvaluator

__all__ = ['BalsamEvaluator', 'BalsamJob', 'BalsamService', 'EvalCache',
           'EvalRecord', 'Evaluator', 'ProcConfig', 'ProcessEvaluator',
           'SerialEvaluator', 'ThreadEvaluator']
