"""Generalized mixture-of-kernels softmax output layer.

The posterior is a convex combination of per-component softmaxes,

    p(w_v | h) = sum_k pi_k(h) * softmax_v(S_k(W_v, h_k~)),

with context-dependent mixture weights pi_k = softmax_k(M_k . h) and
per-component transformed contexts h_k~ = tanh(C_k^T h). The projection
matrix W is tied across components. All probability arithmetic is done in
the log domain; mixed logits are never softmaxed jointly.

The loss and the evaluation NLL need only log p(t | h) = LSE_k(log pi_k +
log softmax_t(S_k)), K values per datum, so the forward pass mixes just
those; posterior() is the one place the full B x V mixture is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NonFiniteScore, TargetOutOfRange


def check_components(components):
    """The component rules of MixtureConfig and TrainConfig alike: at least
    one, and one num_gauss for every mog (they share a word variance array)."""
    if not components:
        raise ValueError("at least one mixture component is required")
    if len({s for s in map(kernels.variance_shape, components) if s}) > 1:
        raise ValueError("all mog components must share num_gauss")


@dataclass(frozen=True)
class MixtureConfig:
    components: tuple
    d: int
    V: int
    rho: float = 0.0
    reg_across_data: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        check_components(self.components)
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def variance_shapes(self) -> list:
        """Per component, the shape of its log-variance parameter (None for
        kinds without Gaussian parameters)."""
        return [kernels.variance_shape(s) for s in self.components]

    @property
    def uses_ball(self) -> bool:
        return any(kernels.KERNELS[s.kind].in_ball for s in self.components)


@dataclass
class OutputParams:
    """Trainable tensors of the output layer.

    M and C exist only when K > 1 (individual kernels keep exact parameter
    parity with the plain linear softmax). word_log_vars is (V,) when only
    ssg components need it, (V, G) when a mog component is present;
    component_log_vars holds one array per component (shape () for ssg,
    (G,) for mog, None otherwise).
    """

    W: np.ndarray
    M: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None  # K x d x d
    word_log_vars: Optional[np.ndarray] = None
    component_log_vars: Optional[list] = None


def init_output_params(config: MixtureConfig, rng: np.random.Generator) -> OutputParams:
    d, V, K = config.d, config.V, config.K
    scale = 1.0 / math.sqrt(d)
    W = rng.uniform(-scale, scale, size=(d, V))
    M = rng.uniform(-scale, scale, size=(d, K)) if K > 1 else None
    C = rng.uniform(-scale, scale, size=(K, d, d)) if K > 1 else None
    shapes = config.variance_shapes
    comp_lv = [np.zeros(s) if s is not None else None for s in shapes]
    # one word array serves every Gaussian component: (V,) for ssg alone,
    # (V, G) once a mog is present
    word = max((s for s in shapes if s is not None), key=len, default=None)
    word_lv = np.zeros((V,) + word) if word is not None else None
    if config.uses_ball:
        kernels.project_to_ball(W)
    return OutputParams(W=W, M=M, C=C, word_log_vars=word_lv,
                        component_log_vars=comp_lv)


def _variances(word_log_vars, component_log_vars, k: int) -> tuple:
    """The (word, component) log-variances component k reads, as views into
    the given arrays; () for kinds without Gaussian parameters. ssg reads
    column 0 of a word array shared with mog."""
    comp = component_log_vars[k] if component_log_vars is not None else None
    if comp is None:
        return ()
    if word_log_vars.ndim > comp.ndim + 1:
        return word_log_vars[:, 0], comp
    return word_log_vars, comp


@dataclass
class ForwardCache:
    """Everything backward() needs from a posterior/loss forward pass."""

    H: np.ndarray
    pi: np.ndarray            # B x K
    log_pi: np.ndarray        # B x K
    lsm: np.ndarray           # K x B x V, per-component log-softmax
    targets: Optional[np.ndarray]        # B target ids; None without
    log_posterior: Optional[np.ndarray]  # B, at the targets; None without
    h_tilde: list             # K tanh outputs (or H itself when K = 1)
    kernel_caches: list       # per component, what backward_logits reads
    ws: Optional[kernels.Workspace] = None  # the workspace lsm lives in
    reg_term: float = 0.0


def _log_softmax(a: np.ndarray, out=None, ws=None) -> np.ndarray:
    """Log-softmax over the last axis, into ``out`` when given; the exp
    temporary comes from ``ws``."""
    m = a.max(axis=-1, keepdims=True)
    z = np.subtract(a, m, out=out)
    e = np.exp(z, out=kernels.buffer(ws, "exp", z.shape))
    z -= np.log(e.sum(axis=-1, keepdims=True))
    return z


def _log_mix(log_pi: np.ndarray, lsm_t: np.ndarray) -> np.ndarray:
    """LSE over the components (axis 0) of the K x B log weights plus the
    K x B log-softmax values at the targets."""
    mix = log_pi + lsm_t
    m = mix.max(axis=0)
    terms = np.exp(mix - m[None])
    # numpy sums a contiguous axis of 8 or more terms pairwise, which would
    # change the bits for K >= 8; add in k order instead
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return m + np.log(total)


def mixture_weights(M: Optional[np.ndarray], H: np.ndarray) -> np.ndarray:
    """pi[b, k] = softmax over k of M_k . h_b, with max-subtraction."""
    H = np.asarray(H, dtype=np.float64)
    if M is None:
        return np.ones((H.shape[0], 1))
    if M.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"M {M.shape} vs H {H.shape}")
    return np.exp(_log_softmax(H @ M))


def transform_contexts(C: np.ndarray, H: np.ndarray) -> list:
    """h_k~ = tanh(C_k^T h) for each component; returns K arrays of B x d."""
    H = np.asarray(H, dtype=np.float64)
    return [np.tanh(H @ C[k]) for k in range(C.shape[0])]


def component_logits(config: MixtureConfig, params: OutputParams, h_k, k: int,
                     ws: Optional[kernels.Workspace] = None):
    """(B x V logits, kernel cache) of component k at its B x d transformed
    contexts h_k, computed in ``ws`` when given (see forward_logits); a
    non-finite logit raises NonFiniteScore naming k."""
    spec = config.components[k]
    try:
        return kernels.forward_logits(
            spec, params.W, h_k * kernels.context_scale(spec, config.d),
            *_variances(params.word_log_vars, params.component_log_vars, k), ws=ws, k=k)
    except NonFiniteScore as e:
        raise NonFiniteScore(f"component {k} ({spec.kind}): {e}", component=k) from e


def _forward(config: MixtureConfig, params: OutputParams, H: np.ndarray,
             targets: Optional[np.ndarray] = None,
             ws: Optional[kernels.Workspace] = None) -> ForwardCache:
    """Forward pass; with ``targets`` the log posterior is mixed at the
    targets (B values), without them it is None. With a workspace ``ws``
    the K x B x V arrays live in it, and the cache stays valid until the
    next call given ``ws``; without one they are fresh."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != config.d:
        raise DimensionMismatch(f"H {H.shape} vs d={config.d}")
    K = config.K
    B = H.shape[0]
    if targets is not None:
        targets = np.asarray(targets)
        if targets.shape != (B,):
            raise DimensionMismatch(f"targets {targets.shape} vs B={B}")
        if (targets < 0).any() or (targets >= config.V).any():
            bad = targets[(targets < 0) | (targets >= config.V)][0]
            raise TargetOutOfRange(f"target id {bad} outside [0, {config.V})")
    if K > 1:
        log_pi = _log_softmax(H @ params.M)
        h_tilde = transform_contexts(params.C, H)
    else:
        log_pi = np.zeros((B, 1))
        h_tilde = [H]
    pi = np.exp(log_pi)

    lsm = kernels.buffer(ws, "lsm", (K, B, config.V))
    caches = []
    for k in range(K):
        L, cache = component_logits(config, params, h_tilde[k], k, ws)
        _log_softmax(L, lsm[k], ws)
        caches.append(cache)

    log_post = None
    if targets is not None:
        log_post = _log_mix(log_pi.T, lsm[:, np.arange(B), targets])
    return ForwardCache(H=H, pi=pi, log_pi=log_pi, lsm=lsm, targets=targets,
                        log_posterior=log_post, h_tilde=h_tilde,
                        kernel_caches=caches, ws=ws)


def posterior(config: MixtureConfig, params: OutputParams, H: np.ndarray):
    """(probs B x V, ForwardCache); probs is the convex combination of
    per-component softmaxes, the one full-vocabulary mixture."""
    cache = _forward(config, params, H)
    probs = np.einsum("bk,kbv->bv", cache.pi, np.exp(cache.lsm))
    return probs, cache


def _pi_variance(pi: np.ndarray, across_data: bool) -> float:
    if across_data:
        # variance of each component's weight across the batch, averaged over K
        return float(pi.var(axis=0).sum() / pi.shape[1])
    # population variance over components, per datum, averaged over the batch
    return float(pi.var(axis=1).mean())


def loss(config: MixtureConfig, params: OutputParams, H: np.ndarray,
         targets: np.ndarray, ws: Optional[kernels.Workspace] = None):
    """Mean cross-entropy plus the scaled mixture-weight variance penalty.

    Returns (scalar loss, ForwardCache); the cache records the regularizer
    term separately. ``ws`` is passed to _forward.
    """
    cache = _forward(config, params, H, targets, ws)
    ce = -float(cache.log_posterior.mean())
    reg = (config.rho * _pi_variance(cache.pi, config.reg_across_data)
           if config.rho > 0 else 0.0)
    cache.reg_term = reg
    return ce + reg, cache


def backward(config: MixtureConfig, params: OutputParams,
             cache: ForwardCache) -> tuple:
    """Analytic gradients of loss() at the cached targets: (an OutputParams
    of the gradient of every output-layer tensor, dL/dH for the encoder).
    Its B x V scratch and the gradient of W come from the cache's
    workspace."""
    H = cache.H
    B, d = H.shape
    K = config.K
    rows = np.arange(B)

    # responsibilities at the target: q[b,k] = pi_k p_k(t) / p(t)
    lsm_t = cache.lsm[:, rows, cache.targets].T  # B x K
    q = np.exp(cache.log_pi + lsm_t - cache.log_posterior[:, None])

    dW = kernels.buffer(cache.ws, "out.dW", params.W.shape)
    dW.fill(0.0)
    dH = np.zeros((B, d))
    dM = None
    dC = np.zeros_like(params.C) if params.C is not None else None
    d_wlv = np.zeros_like(params.word_log_vars) if params.word_log_vars is not None else None
    d_clv = ([np.zeros_like(v) if v is not None else None
              for v in params.component_log_vars]
             if params.component_log_vars is not None else None)

    for k, spec in enumerate(config.components):
        dL = np.exp(cache.lsm[k], out=kernels.buffer(cache.ws, "dL", (B, config.V)))
        np.multiply(q[:, k:k + 1] / B, dL, out=dL)
        dL[rows, cache.targets] -= q[:, k] / B
        dWk, dHk, dwlv_k, dclv_k = kernels.backward_logits(
            spec, cache.kernel_caches[k], dL)
        dW += dWk
        if dwlv_k is not None:
            word, comp = _variances(d_wlv, d_clv, k)
            word += dwlv_k
            comp += dclv_k
        dHk = dHk * kernels.context_scale(spec, d)
        if K > 1:
            ht = cache.h_tilde[k]
            dpre = dHk * (1.0 - ht * ht)
            dC[k] = H.T @ dpre
            dH += dpre @ params.C[k].T
        else:
            dH += dHk

    if K > 1:
        dA = (cache.pi - q) / B  # d CE / d (H M)
        # regularizer through the pi softmax
        if config.rho > 0:
            pi = cache.pi
            if config.reg_across_data:
                g = (2.0 * config.rho / (K * B)) * (pi - pi.mean(axis=0, keepdims=True))
            else:
                g = (2.0 * config.rho / (K * B)) * pi
            dA += pi * (g - (g * pi).sum(axis=1, keepdims=True))
        dM = H.T @ dA
        dH += dA @ params.M.T

    return OutputParams(W=dW, M=dM, C=dC, word_log_vars=d_wlv,
                        component_log_vars=d_clv), dH
