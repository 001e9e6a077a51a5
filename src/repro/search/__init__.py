"""Parallel NAS search: RL (A3C/A2C), random, AMBS, and evolution."""

from ..hpc.cluster import NodeAllocation
from ..hpc.faults import FaultConfig
from .ambs import AmbsProposer
from .base import RewardRecord, SearchConfig, SearchResult
from .checkpoint import AgentCheckpoint, SearchCheckpoint
from .evolution import EvolutionProposer
from .hooks import (BoundaryHook, HealthHook, HookStack, LifecycleHooks,
                    NumericFaultHook)
from .journal import SearchJournal, resume_durable
from .loop import AgentLoop
from .methods import SEARCH_METHODS, SearchMethod, build_proposer
from .proposer import (A2CProposer, A3CProposer, HistoryProposer,
                       PolicyProposer, Proposer, RandomProposer)
from .runner import NasSearch, run_search

__all__ = ['A2CProposer', 'A3CProposer', 'AgentCheckpoint', 'AgentLoop',
           'AmbsProposer', 'BoundaryHook', 'EvolutionProposer',
           'FaultConfig', 'HealthHook', 'HistoryProposer', 'HookStack',
           'LifecycleHooks', 'NasSearch', 'NodeAllocation',
           'NumericFaultHook', 'PolicyProposer', 'Proposer',
           'RandomProposer', 'RewardRecord', 'SEARCH_METHODS',
           'SearchCheckpoint', 'SearchConfig', 'SearchJournal',
           'SearchMethod', 'SearchResult', 'build_proposer',
           'resume_durable', 'run_search']

