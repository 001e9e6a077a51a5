"""numpy-only neural-network substrate.

A minimal Keras-like framework sufficient to express every architecture in
the paper's search spaces and baselines: dense / conv1d / pooling /
dropout layers, DAG models with multi-input merge layers, weight sharing,
Adam, and a training loop with the paper's low-fidelity controls (epoch
budget, timeout, training-data fraction).

Models execute through a compiled engine (:mod:`repro.nn.engine`): at
``build()`` time the DAG is lowered to an index-based execution plan with
pooled, reused activation/gradient buffers, and all parameters can be
packed into one contiguous vector for the fused optimizers.  The compute
dtype is configurable (:mod:`repro.nn.config`): float32 by default,
float64 opt-in for numerics-sensitive work.
"""

from .config import dtype_scope, get_default_dtype, set_default_dtype
from .conv import Conv1D, Flatten, MaxPooling1D
from .engine import BufferPool, ExecutionPlan, FlatParameterVector
from .graph import GraphModel, InputSpec
from .layers import ACTIVATIONS, Activation, Dense, Dropout, Identity, Layer
from .losses import CategoricalCrossentropy, Loss, MeanSquaredError, get_loss
from .merge import Add, Concatenate, MergeLayer
from .metrics import accuracy, get_metric, r2_score
from .optimizers import (Adam, FlatAdam, FlatOptimizer, Optimizer,
                         clip_global_norm)
from .recurrent import LSTMCell
from .tensor import Parameter
from .training import History, Trainer

__all__ = [
    "ACTIVATIONS", "Activation", "Adam", "Add", "BufferPool",
    "CategoricalCrossentropy", "Concatenate", "Conv1D", "Dense", "Dropout",
    "ExecutionPlan", "FlatAdam", "FlatOptimizer", "FlatParameterVector",
    "Flatten", "GraphModel", "History", "Identity", "InputSpec",
    "LSTMCell", "Layer", "Loss", "MaxPooling1D", "MeanSquaredError",
    "MergeLayer", "Optimizer", "Parameter", "Trainer", "accuracy",
    "clip_global_norm", "dtype_scope", "get_default_dtype", "get_loss",
    "get_metric", "r2_score", "set_default_dtype",
]
