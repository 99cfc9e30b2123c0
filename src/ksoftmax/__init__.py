"""Kernelized softmax output layers for contextual word classification."""

from .errors import (
    DimensionMismatch,
    DivergenceDetected,
    EmptyCorpus,
    HpbOutsideBall,
    KsoftmaxError,
    NonFiniteScore,
    TargetOutOfRange,
    TokenOutOfRange,
    WrongKernelKind,
)
from .kernels import (
    KernelGrad,
    KernelSpec,
    grad,
    score,
    score_via_trick,
)
from .output_layer import (
    MixtureConfig,
    OutputParams,
    backward,
    init_output_params,
    loss,
    mixture_weights,
    posterior,
    transform_contexts,
)
from .training import TrainConfig, TrainState, grid_search, train

__version__ = "0.1.0"
