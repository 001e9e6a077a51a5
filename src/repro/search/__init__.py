"""Parallel NAS search: RL (A3C/A2C), random, AMBS, and evolution."""

from ..hpc.cluster import NodeAllocation
from ..hpc.faults import FaultConfig
from .ambs import AmbsProposer
from .base import RewardRecord, SearchConfig, SearchResult
from .checkpoint import AgentCheckpoint, SearchCheckpoint
from .evolution import EvolutionProposer
from .exchange import (A2CExchange, A3CExchange, ExchangeStrategy,
                       RandomExchange)
from .hooks import (BoundaryHook, HealthHook, HookStack, LifecycleHooks,
                    NumericFaultHook)
from .journal import SearchJournal, resume_durable
from .loop import AgentLoop
from .methods import (SEARCH_METHODS, SearchMethod, build_exchange,
                      build_proposer)
from .proposer import (HistoryProposer, PolicyProposer, Proposer,
                       RandomProposer)
from .runner import NasSearch, run_search

__all__ = ['A2CExchange', 'A3CExchange', 'AgentCheckpoint', 'AgentLoop',
           'AmbsProposer', 'BoundaryHook', 'EvolutionProposer',
           'ExchangeStrategy', 'FaultConfig', 'HealthHook',
           'HistoryProposer', 'HookStack', 'LifecycleHooks',
           'NasSearch', 'NodeAllocation', 'NumericFaultHook',
           'PolicyProposer', 'Proposer', 'RandomExchange',
           'RandomProposer', 'RewardRecord',
           'SEARCH_METHODS', 'SearchCheckpoint', 'SearchConfig',
           'SearchJournal', 'SearchMethod', 'SearchResult',
           'build_exchange', 'build_proposer', 'resume_durable',
           'run_search']

