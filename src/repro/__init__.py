"""Reproduction of "Scalable Reinforcement-Learning-Based Neural
Architecture Search for Cancer Deep Learning Research" (SC 2019).

Subpackages
-----------
``repro.nn``
    numpy neural-network substrate (Keras-like DAG models).
``repro.nas``
    the search-space formalism and architecture compiler (the paper's
    primary contribution), plus the Combo/Uno/NT3 spaces.
``repro.rl``
    LSTM controller, PPO, synchronous/asynchronous parameter server.
``repro.hpc``
    discrete-event simulation of the Theta-style cluster and the
    training-time cost model.
``repro.evaluator``
    the three-function evaluation API with serial and Balsam backends.
``repro.rewards``
    reward estimation: real training and the at-scale surrogate.
``repro.problems``
    synthetic CANDLE benchmarks and the manually designed baselines.
``repro.search``
    multi-agent A3C / A2C / RDM NAS runs.
``repro.analytics``
    trajectories, utilization, top-k, replication quantiles.
``repro.posttrain``
    post-training of top architectures and baseline-ratio reports.
``repro.experiments``
    the harness regenerating every table/figure (imported lazily; see
    also the ``python -m repro figure`` CLI).
"""

__version__ = "1.0.0"

from . import (analytics, evaluator, hpc, nas, nn, posttrain, problems,
               rewards, rl, search)

__all__ = ["analytics", "evaluator", "hpc", "nas", "nn", "posttrain",
           "problems", "rewards", "rl", "search", "__version__"]
