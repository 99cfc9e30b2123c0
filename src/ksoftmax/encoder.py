"""Feedforward n-gram context encoder.

Maps the previous n token ids to a context vector
h = tanh(F^T concat(E[tokens]) + bias). tanh keeps h bounded, which keeps
the hyperbolic kernel's ball rescaling and the rbf exponent well-behaved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TokenOutOfRange


@dataclass
class EncoderParams:
    E: np.ndarray     # V x d_e token embeddings (rows indexed by id)
    F: np.ndarray     # (n * d_e) x d projection
    bias: np.ndarray  # d
    n: int

    @property
    def V(self) -> int:
        return self.E.shape[0]

    @property
    def d_e(self) -> int:
        return self.E.shape[1]

    @property
    def d(self) -> int:
        return self.F.shape[1]


def init_encoder_params(V: int, n: int, d: int, d_e: int,
                        rng: np.random.Generator) -> EncoderParams:
    if n < 1:
        raise ValueError("n must be >= 1")
    se = 1.0 / math.sqrt(d_e)
    sf = 1.0 / math.sqrt(n * d_e)
    return EncoderParams(
        E=rng.uniform(-se, se, size=(V, d_e)),
        F=rng.uniform(-sf, sf, size=(n * d_e, d)),
        bias=np.zeros(d),
        n=n,
    )


@dataclass
class EncodeCache:
    windows: np.ndarray
    X: np.ndarray  # B x (n * d_e), concatenated embeddings
    H: np.ndarray


def encode(params: EncoderParams, windows: np.ndarray):
    """(H, EncodeCache) for a B x n batch of token-id windows."""
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != params.n:
        raise DimensionMismatch(f"windows {windows.shape} vs n={params.n}")
    if np.any(windows < 0) or np.any(windows >= params.V):
        bad = windows[(windows < 0) | (windows >= params.V)].flat[0]
        raise TokenOutOfRange(f"token id {bad} outside [0, {params.V})")
    B = windows.shape[0]
    X = params.E[windows].reshape(B, params.n * params.d_e)
    H = np.tanh(X @ params.F + params.bias)
    return H, EncodeCache(windows=windows, X=X, H=H)


def encode_backward(params: EncoderParams, cache: EncodeCache,
                    dH: np.ndarray) -> EncoderParams:
    """Gradients of E, F and bias given dL/dH, in the parameters' own
    structure."""
    dpre = dH * (1.0 - cache.H * cache.H)
    dF = cache.X.T @ dpre
    dbias = dpre.sum(axis=0)
    dX = (dpre @ params.F.T).reshape(-1, params.n, params.d_e)
    dE = np.zeros_like(params.E)
    np.add.at(dE, cache.windows, dX)
    return EncoderParams(E=dE, F=dF, bias=dbias, n=params.n)
