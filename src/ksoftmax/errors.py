"""Exception hierarchy shared across the package."""


class KsoftmaxError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(KsoftmaxError):
    """Vector or matrix shapes do not agree."""


class HpbOutsideBall(KsoftmaxError):
    """A vector fed to the hyperbolic kernel has norm >= 1."""


class NonFiniteScore(KsoftmaxError):
    """A kernel score overflowed or otherwise became non-finite.

    ``component`` is the index of the mixture component that produced it,
    when known.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class TargetOutOfRange(KsoftmaxError):
    """A target token id falls outside [0, V)."""


class TokenOutOfRange(KsoftmaxError):
    """A token id falls outside [0, V)."""


class EmptyCorpus(KsoftmaxError):
    """No usable lines were found when building a vocabulary."""


class CorruptCheckpoint(KsoftmaxError):
    """A checkpoint file is malformed, truncated or does not match its
    recorded configuration."""


class DivergenceDetected(KsoftmaxError):
    """Training hit a non-finite logit, loss or gradient, or ended with no
    finite dev perplexity.

    Carries the global step at which it happened and, when known, where the
    non-finite value came from: the mixture component index for a logit,
    the tensor name for a gradient.
    """

    def __init__(self, message, step=None, component=None):
        super().__init__(message)
        self.step = step
        self.component = component
