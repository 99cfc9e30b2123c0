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

Given a workspace, the forward and backward passes run each component's
B x V chain on the workspace's lanes (kernels.in_lanes), over tiles of
rows, and combine the results in component order, so the bits depend
neither on the lane count nor on the tile size. A forward pass that only
scores at the targets keeps K x B values, not the K x B x V log-softmax,
and takes each component's product over row chunks (kernels.row_chunks),
so a lane holds one chunk's logits, not the batch's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import DimensionMismatch, TargetOutOfRange


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


def variance_shapes(components) -> tuple:
    """(one word's log-variance shape, [each component's]); None where
    there is no Gaussian component, or for a component that is not one."""
    shapes = [kernels.variance_shape(s) for s in components]
    # one word array serves every Gaussian component: (V,) for ssg alone,
    # (V, G) once a mog is present
    return max((s for s in shapes if s is not None), key=len, default=None), shapes


def init_output_params(config: MixtureConfig, rng: np.random.Generator) -> OutputParams:
    d, V, K = config.d, config.V, config.K
    scale = 1.0 / math.sqrt(d)
    W = rng.uniform(-scale, scale, size=(d, V))
    M = rng.uniform(-scale, scale, size=(d, K)) if K > 1 else None
    C = rng.uniform(-scale, scale, size=(K, d, d)) if K > 1 else None
    word, shapes = variance_shapes(config.components)
    comp_lv = [np.zeros(s) if s is not None else None for s in shapes]
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
    lsm: Optional[np.ndarray]  # K x B x V, per-component log-softmax (backward
                               # consumes it, and after a keeping pass in a
                               # workspace writes dW terms over it); None
                               # when the pass scored only at the targets
    targets: Optional[np.ndarray]        # B target ids; None without
    log_posterior: Optional[np.ndarray]  # B, at the targets; None without
    h_tilde: list             # K tanh outputs (or H itself when K = 1)
    kernel_caches: Optional[list]  # per component, what backward_logits
                                   # reads; None after a scoring pass
    ws: Optional[kernels.Workspace] = None  # the workspace lsm lives in
    reg_term: float = 0.0


def _log_softmax(a: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Log-softmax over the last axis, into ``out`` when given (which may be
    ``a``); the exp temporary is the lane scratch "s0"."""
    m = a.max(axis=-1, keepdims=True)
    z = np.subtract(a, m, out=out)
    e = np.exp(z, out=kernels.buffer(scratch, "s0", z.shape))
    z -= np.log(e.sum(axis=-1, keepdims=True))
    return z


def _log_softmax_at(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """_log_softmax(a)[i, t[i]] for each row i, bit for bit; overwrites
    ``a``."""
    z = np.subtract(a, a.max(axis=-1, keepdims=True), out=a)
    z_t = z[np.arange(len(t)), t]
    return z_t - np.log(np.exp(z, out=z).sum(axis=-1))


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


def transform_contexts(C: np.ndarray, H: np.ndarray) -> list:
    """h_k~ = tanh(C_k^T h) for each component; returns K arrays of B x d."""
    H = np.asarray(H, dtype=np.float64)
    return [np.tanh(H @ C[k]) for k in range(C.shape[0])]


def component_logits(config: MixtureConfig, params: OutputParams, h_k, k: int,
                     ws: Optional[kernels.Workspace] = None, out=None, scratch=None,
                     each=None):
    """(B x V logits, kernel cache) of component k at its B x d transformed
    contexts h_k; ``ws``, ``out``, ``scratch`` and ``each`` as in
    forward_logits."""
    spec = config.components[k]
    return kernels.forward_logits(
        spec, params.W, kernels.scale_context(spec, config.d, h_k),
        *_variances(params.word_log_vars, params.component_log_vars, k),
        ws=ws, k=k, out=out, scratch=scratch, each=each)


def _forward(config: MixtureConfig, params: OutputParams, H: np.ndarray,
             targets: Optional[np.ndarray] = None,
             ws: Optional[kernels.Workspace] = None,
             for_backward: bool = False) -> ForwardCache:
    """Forward pass; with ``targets`` the log posterior is mixed at the
    targets (B values), without them it is None. It is one of two passes.
    A keeping pass (``for_backward``, or no workspace: loss, posterior and
    the probe) keeps what backward reads. A scoring pass (a workspace
    without ``for_backward``: evaluation) takes those arrays from the
    lanes' scratch, so it returns no kernel caches (``kernel_caches`` is
    None), and with targets keeps no log-softmax (``lsm`` is None), only
    each row's value at its target; its products run over row chunks.
    With a workspace ``ws`` the K x B x V arrays live in it, the
    components are scored on its lanes, and each is scored tile by tile;
    the cache stays valid until the next call given ``ws``. A keeping
    pass there takes max(B, d) rows of the "lsm" buffer per component and
    uses the first B, so backward can write each component's d x V term
    of dW over them. Without one
    every array is fresh and each component is scored on the whole batch:
    a buffer source, not a third pass."""
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
        pi = np.exp(log_pi)
        h_tilde = transform_contexts(params.C, H)
    else:  # log pi is 0, and pi exp(0) = 1
        log_pi, pi = np.zeros((B, 1)), np.ones((B, 1))
        h_tilde = [H]

    scoring = ws is not None and not for_backward
    at_targets = scoring and targets is not None
    kept = ws if for_backward else None
    # a kept component's rows hold its d x V term of dW in backward
    height = max(B, config.d) if kept else B
    lsm = None if at_targets else kernels.buffer(ws, "lsm", (K, height, config.V))[:, :B]
    lsm_t = np.empty((K, B)) if at_targets else None

    def score(k, scratch):
        # the logits are written to lsm[k] and log-softmaxed in place, or,
        # at the targets only, chunk by chunk to the lane's scratch
        # (kernels.forward_logits)
        def each(rows, L):
            if at_targets:
                lsm_t[k, rows] = _log_softmax_at(L, targets[rows])
            else:
                _log_softmax(L, L, scratch)

        out = None if at_targets else lsm[k]
        return component_logits(config, params, h_tilde[k], k, kept, out, scratch,
                                each)[1]

    caches = kernels.in_lanes(ws, K, B * config.V, score)

    log_post = None
    if targets is not None:
        if not at_targets:
            lsm_t = lsm[:, np.arange(B), targets]
        # at K = 1 the mix is lsm_t exactly: lsm_t + 0, exp(0) = 1, log 1 = 0
        log_post = _log_mix(log_pi.T, lsm_t) if K > 1 else lsm_t[0]
    return ForwardCache(H=H, pi=pi, log_pi=log_pi, lsm=lsm, targets=targets,
                        log_posterior=log_post, h_tilde=h_tilde,
                        kernel_caches=None if scoring else caches, ws=ws)


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
    term separately and serves backward. ``ws`` is passed to _forward.
    """
    cache = _forward(config, params, H, targets, ws, for_backward=True)
    ce = -float(cache.log_posterior.mean())
    reg = (config.rho * _pi_variance(cache.pi, config.reg_across_data)
           if config.rho > 0 else 0.0)
    cache.reg_term = reg
    return ce + reg, cache


def backward(config: MixtureConfig, params: OutputParams,
             cache: ForwardCache, dW: Optional[np.ndarray] = None) -> tuple:
    """Analytic gradients of loss() at the cached targets: (an OutputParams
    of the gradient of every output-layer tensor, dL/dH for the encoder).

    Each component's chain runs on a lane of the cache's workspace, and
    the terms are summed in component order: those of W in chunks on the
    lanes, into ``dW`` (C-contiguous, W's shape) when given and a fresh
    array otherwise, which holds component 0's term until the sum, the
    rest on the calling thread. It consumes
    ``cache.lsm``: component k's logit cotangent is written over lsm[k],
    one tile of rows at a time just before the kernel's VJP reads it, and
    with a workspace component k >= 1 then writes its term of W over its
    first d rows of the "lsm" buffer (_forward gives it max(B, d)); without
    one that term is a fresh array. Its temporaries are tiles of the
    lanes' scratch.
    """
    H = cache.H
    B, d = H.shape
    K = config.K

    # responsibilities at the target: q[b,k] = pi_k p_k(t) / p(t), which is
    # exp(0 + lsm_t - lsm_t) = 1.0 = pi at K = 1
    q = cache.pi
    if K > 1:
        lsm_t = cache.lsm[:, np.arange(B), cache.targets].T  # B x K
        q = np.exp(cache.log_pi + lsm_t - cache.log_posterior[:, None])
    dC = np.zeros_like(params.C) if params.C is not None else None
    dW = np.empty(params.W.shape) if dW is None else dW
    spent = cache.ws.take("lsm", (K, max(B, d), config.V))[:, :d] if cache.ws else [None] * K

    def chain(k, scratch):
        """(dW_k, component k's dH term, its log-variance gradients); fills dC[k]."""
        spec = config.components[k]
        qk = q[:, k] / B

        def cotangent(rows, dL):
            # component k's logit cotangent over the tile's rows, written
            # over their lsm while they are in cache
            np.multiply(qk[rows, None], np.exp(dL, out=dL), out=dL)
            dL[np.arange(len(dL)), cache.targets[rows]] -= qk[rows]

        dWk, dHk, dwlv_k, dclv_k = kernels.backward_logits(
            spec, cache.kernel_caches[k], cache.lsm[k], scratch, cotangent, spent[k] if k else dW)
        dHk = kernels.scale_context(spec, d, dHk)
        if K > 1:
            ht = cache.h_tilde[k]
            dpre = dHk * (1.0 - ht * ht)
            dC[k] = H.T @ dpre
            dHk = dpre @ params.C[k].T
        return dWk, dHk, dwlv_k, dclv_k

    terms = kernels.in_lanes(cache.ws, K, B * config.V, chain)

    total, parts = dW.reshape(-1), [term[0].reshape(-1) for term in terms[1:]]

    def add(c, scratch):
        # 0.0 + the first term, already in dW, as adding it to zeros gives
        # (-0.0 -> +0.0)
        chunk = np.add(0.0, total[c], out=total[c])
        for part in parts:
            chunk += part[c]

    kernels.in_chunks(cache.ws, dW.size, add)
    dH = np.add(0.0, terms[0][1])
    dM = None
    d_wlv = np.zeros_like(params.word_log_vars) if params.word_log_vars is not None else None
    d_clv = ([np.zeros_like(v) if v is not None else None
              for v in params.component_log_vars]
             if params.component_log_vars is not None else None)
    for k, (_, dHk, dwlv_k, dclv_k) in enumerate(terms):
        if dwlv_k is not None:
            word, comp = _variances(d_wlv, d_clv, k)
            word += dwlv_k
            comp += dclv_k
        if k:
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
