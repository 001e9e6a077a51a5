"""Reinforcement-learning machinery: LSTM controller, PPO, parameter server."""

from .parameter_server import ParameterServer
from .policy import LSTMPolicy, Rollout
from .ppo import PPOConfig, PPOStats, PPOUpdater

__all__ = ["LSTMPolicy", "PPOConfig", "PPOStats", "PPOUpdater",
           "ParameterServer", "Rollout"]
