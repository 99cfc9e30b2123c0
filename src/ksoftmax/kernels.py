"""Kernel scoring functions used as softmax logits, plus their analytic gradients.

Nine kernels are supported, identified by short names:

    lin   inner product
    log   -log(||w - h||^p + 1)
    pow   -||w - h||^p
    pol   (alpha * w.h + c)^p, p a positive integer
    rbf   exp(-gamma * ||w - h||^2)
    ssg   log-integral of two spherical Gaussians (closed form)
    mog   sum over (word, context) variance pairs, one shared mean per
          side (log-of-sum variant available behind ``mog_log_of_sum``)
    hpb   negative hyperbolic (Poincare ball) distance
    wav   cos(||w - h||^2 / a) * exp(-||w - h||^2 / b)

Each kind is defined once, as an entry of ``KERNELS``: a score and its
vector-Jacobian product (VJP) on the kind's sufficient statistics, the dot
product w.h (lin, pol) or the squared distance x = ||w - h||^2 (the rest;
hpb also reads the norms, ssg/mog the summed variances). The batched path
computes x by norm expansion, x = ||w||^2 + ||h||^2 - 2 w.h, and backward
applies the chain rule through it. The scalar score/grad run the same
entries on one (w, h) pair, but compute x from the explicit difference
w - h, an independent distance computation.

The batched path takes an optional ``Workspace`` that owns its B x V
buffers across calls; without one every array is freshly allocated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    HpbOutsideBall,
    NonFiniteScore,
    WrongKernelKind,
)

# Kernels whose score is a function of the squared distance ||w - h||^2
# alone (hpb additionally depends on the two norms); the order is the one
# the trick-equivalence audit draws its inputs in.
DISTANCE_KINDS = ("log", "pow", "rbf", "wav", "hpb")

# Margin kept between hpb vectors and the unit sphere.
BALL_MARGIN = 1e-5

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel kind plus its hyperparameters.

    ``alpha`` and ``gamma`` default to None, meaning 1/d resolved against
    the vector dimension at evaluation time (1 when no dimension applies,
    e.g. radial curve emission). A field the kind does not read (see
    ``Kernel.fields``) must keep its default.
    """

    kind: str
    p: float = 2.0
    alpha: Optional[float] = None
    c: float = 1.0
    gamma: Optional[float] = None
    a: float = 1.0
    b: float = 1.0
    num_gauss: int = 2
    mog_log_of_sum: bool = False

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        for f in dataclasses.fields(self):
            if (f.name not in ("kind", *KERNELS[self.kind].fields)
                    and getattr(self, f.name) != f.default):
                raise ValueError(f"{self.kind} does not read kernel field "
                                 f"{f.name!r}, set to {getattr(self, f.name)!r}")
        if self.kind in ("log", "pow", "pol"):
            if not self.p > 0:
                raise ValueError(f"{self.kind}: p must be positive, got {self.p}")
            if self.kind == "pol" and (self.p != int(self.p)):
                raise ValueError(f"pol: p must be a positive integer, got {self.p}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.a > 0 or not self.b > 0:
            raise ValueError("a and b must be positive")
        if self.num_gauss < 1:
            raise ValueError("num_gauss must be >= 1")

    def resolved_alpha(self, d: Optional[int] = None) -> float:
        if self.alpha is not None:
            return self.alpha
        return 1.0 / d if d else 1.0

    def resolved_gamma(self, d: Optional[int] = None) -> float:
        if self.gamma is not None:
            return self.gamma
        return 1.0 / d if d else 1.0

    @staticmethod
    def from_dict(d: dict) -> "KernelSpec":
        d = dict(d)
        # checkpoints written before the never-read learn_variances field
        # was removed still carry it
        d.pop("learn_variances", None)
        return KernelSpec(**d)


@dataclass
class KernelGrad:
    """Analytic partial derivatives of a kernel score.

    For ssg/mog the log-variance gradients are filled in, with the shape of
    the log-variances passed in: () for ssg, (G,) for mog. ``singular``
    flags the zero subgradient returned at the w == h singularity of
    log/pow with p < 2 and of hpb.
    """

    d_w: np.ndarray
    d_h: np.ndarray
    d_w_log_var: Optional[np.ndarray] = None
    d_h_log_var: Optional[np.ndarray] = None
    singular: bool = False


def _as_vec(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


def _check_pair(w, h):
    w = _as_vec(w, "w")
    h = _as_vec(h, "h")
    if w.shape != h.shape:
        raise DimensionMismatch(f"w has shape {w.shape}, h has shape {h.shape}")
    return w, h


def _check_finite(value, context: str):
    if not np.all(np.isfinite(value)):
        raise NonFiniteScore(f"non-finite score in {context}")
    return value


class Workspace:
    """Scratch buffers that a caller owns and reuses across batched calls.

    ``take(key, shape)`` returns a float64 view of the flat buffer kept
    under ``key``, with whatever contents its last user left. The buffer
    grows only when a request is larger than what it holds, so a shorter
    batch reuses it. A result computed in a workspace stays valid until the
    next call given the same workspace. A copy is empty: copying an object
    that holds a workspace copies no buffers.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, key, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)

    def __deepcopy__(self, memo):
        return Workspace()


def buffer(ws: Optional[Workspace], key, shape) -> np.ndarray:
    """``ws.take(key, shape)``, or a fresh array when there is no workspace."""
    return np.empty(shape) if ws is None else ws.take(key, shape)


def _scratch(st, name, keep=False) -> np.ndarray:
    """A buffer shaped like the statistic x, from the workspace of ``st``:
    kept for this component's backward when ``keep``, otherwise shared by
    every component. Of the shared ones, forward_logits leaves L in "L"
    and the log-softmax of L takes "exp"; a VJP runs once both are dead,
    beside backward's "dL", and takes its scratch from "L", "exp" and "t"."""
    return buffer(st.get("ws"), (name, st.get("k")) if keep else name, st["x"].shape)


def _sq_dist(w_norm_sq, h_norm_sq, dot, out):
    """Norm-expansion squared distance into ``out``, clamped at 0 against
    FP cancellation; ``dot`` is overwritten."""
    np.add(w_norm_sq, h_norm_sq, out=out)
    dot *= 2.0
    out -= dot
    return np.maximum(out, 0.0, out=out)


@dataclass(frozen=True)
class Kernel:
    """One kind's entry in the kernel table.

    ``score(spec, st)`` maps a statistics dict to logits and may add
    intermediates to it for the VJP. ``st`` holds "d" (the dimension, None
    when unknown), "dot" or "x" as B x V arrays, for hpb "wn" (1 x V) and
    "hn" (B x 1), and for ssg/mog the word and component log-variances
    "wlv"/"clv"; in the batched path also the workspace "ws" (None for
    fresh arrays) and the component index "k" that tags the buffers kept
    for backward. ``vjp(spec, st, dL, kink)`` maps the cotangent of the
    logits to cotangents of those entries, with the zero subgradient where
    the ``kink`` mask is set; it leaves ``st`` and ``dL`` unchanged.
    """

    stat: str                             # "dot" or "x"
    score: Callable
    vjp: Callable
    kink: Optional[Callable] = None       # (spec, st) -> mask of kinks, or None
    var_shape: Optional[Callable] = None  # spec -> component log-variance shape
    in_ball: bool = False                 # vectors must lie in the unit ball
    fields: tuple = ()                    # the KernelSpec fields the kind reads


def _pol_score(spec, st):
    st["base"] = base = spec.resolved_alpha(st["d"]) * st["dot"] + spec.c
    return base ** int(spec.p)


def _pol_vjp(spec, st, dL, kink):
    p = int(spec.p)
    return {"dot": dL * (p * spec.resolved_alpha(st["d"]) * st["base"] ** (p - 1))}


def _radial(phi, dphi, fields, kink=None) -> Kernel:
    """A kernel that is a profile phi(spec, x, d, out) of the squared
    distance; phi and its derivative dphi write their result into ``out``."""
    def vjp(spec, st, dL, kink_mask):
        # at x = 0 with p < 2 dphi is non-finite; kink_mask replaces it
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = dphi(spec, st["x"], st["d"], _scratch(st, "L"))
        if kink_mask is not None:
            dx[kink_mask] = 0.0
        return {"x": np.multiply(dL, dx, out=dx)}
    return Kernel("x", lambda spec, st: phi(spec, st["x"], st["d"], _scratch(st, "L")),
                  vjp, kink, fields=fields)


def _below_p2_kink(spec, st):
    return st["x"] == 0.0 if spec.p < 2.0 else None


def _hpb_score(spec, st):
    for side, norms in (("word column", st["wn"]), ("context row", st["hn"])):
        if (norms >= 1.0).any():
            raise HpbOutsideBall(
                f"{side} {int(np.argmax(norms >= 1.0))} has norm >= 1")
    st["A"] = A = 1.0 - st["wn"]
    st["Bn"] = Bn = 1.0 - st["hn"]
    # z = max(1 + 2 x / (Bn A), 1)
    st["z"] = z = np.multiply(2.0, st["x"], out=_scratch(st, "z", keep=True))
    L = np.multiply(Bn, A, out=_scratch(st, "L"))
    z /= L
    np.add(1.0, z, out=z)
    np.maximum(z, 1.0, out=z)
    return np.negative(np.arccosh(z, out=L), out=L)


def _hpb_vjp(spec, st, dL, kink):
    A, Bn, x, z = st["A"], st["Bn"], st["x"], st["z"]
    # dz = -dL / sqrt(z^2 - 1)
    t = np.multiply(z, z, out=_scratch(st, "L"))
    t -= 1.0
    np.sqrt(t, out=t)
    dz = np.negative(dL, out=_scratch(st, "exp"))
    with np.errstate(divide="ignore", invalid="ignore"):
        dz /= t
    if kink is not None:
        dz[kink] = 0.0
    inv_ab = np.multiply(Bn, A, out=t)
    np.divide(1.0, inv_ab, out=inv_ab)
    # z depends on the norms through A = 1 - wn and Bn = 1 - hn, both via
    # u = dz (2 x) inv_ab
    u = np.multiply(2.0, x, out=_scratch(st, "t"))
    np.multiply(dz, u, out=u)
    u *= inv_ab
    dx = np.multiply(dz, 2.0, out=dz)
    dx *= inv_ab
    return {"x": dx,
            "wn": np.divide(u, A, out=t).sum(axis=0, keepdims=True),
            "hn": np.divide(u, Bn, out=t).sum(axis=1, keepdims=True)}


def _gauss_ell(d, x, s, out=None):
    """log of the integral of two spherical Gaussians in d dimensions with
    squared mean distance x and summed variance s."""
    return np.subtract(-0.5 * d * (LOG_2PI + np.log(s)),
                       np.divide(x, 2.0 * s, out=out), out=out)


def _gauss_ell_vjp(d, x, s, g, dx=None, ds=None):
    """(x, s) cotangents of _gauss_ell given its cotangent g, written into
    ``dx`` and ``ds`` when they are given."""
    dx = np.multiply(g, -1.0 / (2.0 * s), out=dx)
    ds = np.divide(x, 2.0 * s * s, out=ds)
    np.add(-0.5 * d / s, ds, out=ds)
    return dx, np.multiply(g, ds, out=ds)


def _log_mean_exp(ell):
    """log of the mean of exp over the trailing G x G pair axes."""
    flat = ell.reshape(ell.shape[:-2] + (-1,))
    m = flat.max(axis=-1)
    return (m + np.log(np.exp(flat - m[..., None]).sum(axis=-1))
            - 2.0 * math.log(ell.shape[-1]))


def _pair_posterior(ell):
    """Softmax over the trailing G x G pair axes: d _log_mean_exp / d ell."""
    flat = ell.reshape(ell.shape[:-2] + (-1,))
    e = np.exp(flat - flat.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)).reshape(ell.shape)


def _ssg_score(spec, st):
    st["s"] = s = np.exp(st["wlv"]) + math.exp(float(st["clv"]))
    return _gauss_ell(st["d"], st["x"], s, _scratch(st, "L"))


def _ssg_vjp(spec, st, dL, kink):
    dx, ds = _gauss_ell_vjp(st["d"], st["x"], st["s"], dL,
                            _scratch(st, "L"), _scratch(st, "exp"))
    ds_v = ds.sum(axis=0)
    return {"x": dx, "wlv": ds_v * np.exp(st["wlv"]),
            "clv": np.float64(ds_v.sum() * math.exp(float(st["clv"])))}


def _mog_score(spec, st):
    """Each word and each context carry G Gaussians sharing one mean; s is
    V x G x G over (word Gaussian, context Gaussian) pairs."""
    st["s"] = s = np.exp(st["wlv"])[:, :, None] + np.exp(st["clv"])[None, None, :]
    d, x = st["d"], st["x"]
    if spec.mog_log_of_sum:
        st["ell"] = ell = _gauss_ell(d, x[:, :, None, None], s)
        return _log_mean_exp(ell)
    # the sum over pairs is affine in the shared x
    st["c2"] = c2 = (1.0 / (2.0 * s)).sum(axis=(1, 2))
    return -0.5 * d * (LOG_2PI + np.log(s)).sum(axis=(1, 2))[None, :] - x * c2[None, :]


def _mog_vjp(spec, st, dL, kink):
    d, x, s = st["d"], st["x"], st["s"]
    if spec.mog_log_of_sum:
        dell = dL[:, :, None, None] * _pair_posterior(st["ell"])
        dx, ds = _gauss_ell_vjp(d, x[:, :, None, None], s, dell)
        dx, ds = dx.sum(axis=(2, 3)), ds.sum(axis=0)
    else:
        dx = dL * (-st["c2"])[None, :]
        ds = ((-0.5 * d / s) * dL.sum(axis=0)[:, None, None]
              + (1.0 / (2.0 * s * s)) * (dL * x).sum(axis=0)[:, None, None])
    return {"x": dx, "wlv": ds.sum(axis=2) * np.exp(st["wlv"]),
            "clv": ds.sum(axis=(0, 1)) * np.exp(st["clv"])}


KERNELS = {
    "lin": Kernel("dot", lambda spec, st: st["dot"],
                  lambda spec, st, dL, kink: {"dot": dL}),
    "log": _radial(
        lambda spec, x, d, out: np.negative(
            np.log1p(np.power(x, 0.5 * spec.p, out=out), out=out), out=out),
        lambda spec, x, d, out: np.divide(
            np.multiply(-0.5 * spec.p, np.power(x, 0.5 * spec.p - 1.0, out=out), out=out),
            np.power(x, 0.5 * spec.p) + 1.0, out=out),
        ("p",), _below_p2_kink),
    "pow": _radial(
        lambda spec, x, d, out: np.negative(np.power(x, 0.5 * spec.p, out=out), out=out),
        lambda spec, x, d, out: np.multiply(
            -0.5 * spec.p, np.power(x, 0.5 * spec.p - 1.0, out=out), out=out),
        ("p",), _below_p2_kink),
    "pol": Kernel("dot", _pol_score, _pol_vjp, fields=("p", "alpha", "c")),
    "rbf": _radial(
        lambda spec, x, d, out: np.exp(
            np.multiply(-spec.resolved_gamma(d), x, out=out), out=out),
        lambda spec, x, d, out: np.multiply(
            -spec.resolved_gamma(d),
            np.exp(np.multiply(-spec.resolved_gamma(d), x, out=out), out=out), out=out),
        ("gamma",)),
    "ssg": Kernel("x", _ssg_score, _ssg_vjp, var_shape=lambda spec: ()),
    "mog": Kernel("x", _mog_score, _mog_vjp,
                  var_shape=lambda spec: (spec.num_gauss,),
                  fields=("num_gauss", "mog_log_of_sum")),
    "hpb": Kernel("x", _hpb_score, _hpb_vjp,
                  kink=lambda spec, st: st["z"] <= 1.0, in_ball=True),
    "wav": _radial(
        lambda spec, x, d, out: np.multiply(np.cos(x / spec.a), np.exp(-x / spec.b),
                                            out=out),
        lambda spec, x, d, out: np.multiply(
            -np.exp(-x / spec.b),
            np.sin(x / spec.a) / spec.a + np.cos(x / spec.a) / spec.b, out=out),
        ("a", "b")),
}

KINDS = tuple(KERNELS)


def variance_shape(spec: KernelSpec):
    """Shape of one component's log-variance parameter: () for ssg, (G,)
    for mog, None for kinds without Gaussian parameters."""
    var_shape = KERNELS[spec.kind].var_shape
    return var_shape(spec) if var_shape is not None else None


def context_scale(spec: KernelSpec, d: int) -> float:
    """Constant rescale of tanh-bounded contexts (norm <= sqrt(d)) that keeps
    them strictly inside the unit ball for kinds that need it; 1 otherwise."""
    return (1.0 - BALL_MARGIN) / math.sqrt(d) if KERNELS[spec.kind].in_ball else 1.0


def radial_profile(spec: KernelSpec, x):
    """(score, d score / d x) as a function of the kind's statistic x: the
    squared distance, or the dot product for lin and pol.

    Used by the curve emitter. Evaluated at d = 1 (alpha/gamma resolve to
    1), hpb at zero vector norms, ssg/mog with unit variances, and without
    the zero subgradient at kinks.
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = KERNELS[spec.kind]
    row = x.reshape(1, -1)
    st = {"d": 1, kernel.stat: row, "wn": np.zeros((1, 1)), "hn": np.zeros((1, 1))}
    if kernel.var_shape is not None:
        shape = kernel.var_shape(spec)
        st.update(wlv=np.zeros(row.shape[1:] + shape), clv=np.zeros(shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = kernel.score(spec, st)
        ds = kernel.vjp(spec, st, np.ones_like(row), None)[kernel.stat]
    return np.array(s).reshape(x.shape), ds.reshape(x.shape)


# ---------------------------------------------------------------------------
# Scalar score / grad
# ---------------------------------------------------------------------------

def _pair_stats(spec: KernelSpec, w, h, w_log_var, h_log_var) -> tuple:
    """(statistics of one (w, h) pair as 1 x 1 arrays, w, h); x comes from
    the explicit difference w - h. Log-variances must have variance_shape."""
    w, h = _check_pair(w, h)
    kernel = KERNELS[spec.kind]
    st = {"d": w.shape[0]}
    if kernel.stat == "dot":
        st["dot"] = np.full((1, 1), np.dot(w, h))
    else:
        diff = w - h
        st.update(x=np.full((1, 1), np.dot(diff, diff)),
                  wn=np.full((1, 1), np.dot(w, w)), hn=np.full((1, 1), np.dot(h, h)))
    shape = variance_shape(spec)
    for name, lv in (("w_log_var", w_log_var), ("h_log_var", h_log_var)):
        got = None if lv is None else np.shape(lv)
        if got != shape:
            raise DimensionMismatch(f"{name}: {spec.kind} takes shape {shape}, got {got}")
    if shape is not None:
        st.update(wlv=np.asarray(w_log_var, dtype=np.float64)[None],
                  clv=np.asarray(h_log_var, dtype=np.float64))
    return st, w, h


def score(spec: KernelSpec, w, h, w_log_var=None, h_log_var=None) -> float:
    """S_kind(w, h) per the kernel definitions in the module docstring.

    ssg takes one log-variance per side (shape ()), mog ``spec.num_gauss``
    of them (shape (G,)); every Gaussian of a side is centred on w or h.
    """
    st, _, _ = _pair_stats(spec, w, h, w_log_var, h_log_var)
    return float(_check_finite(KERNELS[spec.kind].score(spec, st)[0, 0], spec.kind))


def score_via_trick(spec: KernelSpec, w_norm_sq: float, h_norm_sq: float,
                    dot: float) -> float:
    """Score a distance-based kernel from cached norms and a dot product.

    The squared distance is recovered via the norm expansion
    ||w - h||^2 = ||w||^2 + ||h||^2 - 2 w.h, clamped at 0: the batched
    path at B = V = 1.
    """
    if spec.kind not in DISTANCE_KINDS:
        raise WrongKernelKind(
            f"norm-expansion trick is vacuous for {spec.kind!r}")
    if w_norm_sq < 0 or h_norm_sq < 0:
        raise DimensionMismatch("squared norms must be nonnegative")
    # gamma default 1/d needs the dimension, which the trick does not see;
    # callers relying on the default must resolve it into the spec first.
    if spec.kind == "rbf" and spec.gamma is None:
        raise WrongKernelKind("rbf via trick needs an explicit gamma")
    wn, hn = np.full((1, 1), float(w_norm_sq)), np.full((1, 1), float(h_norm_sq))
    st = {"d": None, "wn": wn, "hn": hn,
          "x": _sq_dist(wn, hn, np.full((1, 1), float(dot)), np.empty((1, 1)))}
    return float(_check_finite(KERNELS[spec.kind].score(spec, st)[0, 0], spec.kind))


def grad(spec: KernelSpec, w, h, w_log_var=None, h_log_var=None) -> KernelGrad:
    """Analytic gradient of score() with respect to its vector arguments
    (and log-variances for ssg/mog), from the kind's VJP."""
    kernel = KERNELS[spec.kind]
    st, w, h = _pair_stats(spec, w, h, w_log_var, h_log_var)
    kernel.score(spec, st)  # checks the inputs and fills in what the VJP reads
    kink = kernel.kink(spec, st) if kernel.kink is not None else None
    if kink is not None and kink.any():
        # documented zero subgradient at the w == h kink
        return KernelGrad(d_w=np.zeros_like(w), d_h=np.zeros_like(h), singular=True)
    g = kernel.vjp(spec, st, np.ones((1, 1)), kink)
    if kernel.stat == "dot":
        c = g["dot"][0, 0]
        d_w, d_h = c * h, c * w
    else:
        c = 2.0 * g["x"][0, 0]
        d_w, d_h = c * (w - h), c * (h - w)
    if "wn" in g:
        d_w = d_w + 2.0 * g["wn"][0, 0] * w
        d_h = d_h + 2.0 * g["hn"][0, 0] * h
    if "wlv" in g:
        return KernelGrad(d_w=d_w, d_h=d_h, d_w_log_var=g["wlv"][0], d_h_log_var=g["clv"])
    return KernelGrad(d_w=d_w, d_h=d_h)


# ---------------------------------------------------------------------------
# Batched logits and the matching backward pass
# ---------------------------------------------------------------------------

def forward_logits(spec: KernelSpec, W: np.ndarray, H: np.ndarray,
                   word_log_vars: Optional[np.ndarray] = None,
                   comp_log_vars: Optional[np.ndarray] = None,
                   ws: Optional[Workspace] = None, k: int = 0) -> tuple:
    """Logit matrix L with L[b, v] = score(spec, W[:, v], H[b]), plus
    ``word_log_vars[v], comp_log_vars`` for ssg/mog.

    W is d x V (columns are word vectors), H is B x d. ssg expects
    ``word_log_vars`` of shape (V,) and a scalar ``comp_log_vars``; mog
    expects (V, G) and (G,). Returns (L, cache); the cache, all that
    backward_logits reads, is W, H and the statistics the kind's VJP reads.

    With a workspace ``ws``, the B x V arrays the cache keeps are taken
    under keys tagged with the component index ``k``, and L and every
    other B x V array under keys that all components share: L is valid
    until the next call given ``ws``, the cache until the next call given
    ``ws`` and the same ``k``.
    """
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W.ndim != 2 or H.ndim != 2 or W.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"W {W.shape} vs H {H.shape}")
    if W.shape[1] < 2:
        raise DimensionMismatch("need V >= 2")
    kernel = KERNELS[spec.kind]
    shape = (H.shape[0], W.shape[1])
    st = {"d": W.shape[0], "W": W, "H": H, "ws": ws, "k": k}
    dot = np.matmul(H, W, out=buffer(ws, "L", shape))  # for lin L is dot
    if kernel.stat == "x":
        wn = np.einsum("dv,dv->v", W, W)[None, :]
        hn = np.einsum("bd,bd->b", H, H)[:, None]
        st.update(x=_sq_dist(wn, hn, dot, buffer(ws, ("x", k), shape)), wn=wn, hn=hn)
    else:
        st["dot"] = dot
    if kernel.var_shape is not None:
        if word_log_vars is None or comp_log_vars is None:
            raise DimensionMismatch(f"{spec.kind} needs word and component log-variances")
        st.update(wlv=np.asarray(word_log_vars, dtype=np.float64),
                  clv=np.asarray(comp_log_vars, dtype=np.float64))
    L = kernel.score(spec, st)
    st.pop("dot", None)  # no VJP reads it
    if not np.isfinite(L).all():
        b, v = np.argwhere(~np.isfinite(L))[0]
        raise NonFiniteScore(f"non-finite {spec.kind} logit at (b={b}, v={v})")
    return L, st


def backward_logits(spec: KernelSpec, cache: dict, dL: np.ndarray):
    """Backpropagate dLoss/dL through forward_logits, given its cache.

    Returns (dW, dH, d_word_log_vars, d_comp_log_vars); the last two are
    None for kernels without Gaussian parameters. The scratch, dW included,
    comes from the cache's workspace: dW is valid until the next call given
    that workspace.
    """
    W, H, ws = cache["W"], cache["H"], cache.get("ws")
    kernel = KERNELS[spec.kind]
    kink = kernel.kink(spec, cache) if kernel.kink is not None else None
    g = kernel.vjp(spec, cache, dL, kink)
    dW = buffer(ws, "dW", W.shape)
    if kernel.stat == "dot":
        dW, dH = np.matmul(H.T, g["dot"], out=dW), g["dot"] @ W.T
    else:
        # chain rule through x = wn + hn - 2 w.h
        dx = g["x"]
        np.multiply(W, dx.sum(axis=0)[None, :], out=dW)
        dW -= np.matmul(H.T, dx, out=buffer(ws, "dW.t", W.shape))
        dW *= 2.0
        dH = 2.0 * (H * dx.sum(axis=1)[:, None] - dx @ W.T)
    if "wn" in g:
        t = np.multiply(2.0, W, out=buffer(ws, "dW.t", W.shape))
        dW += np.multiply(t, g["wn"], out=t)
        dH = dH + 2.0 * H * g["hn"]
    return dW, dH, g.get("wlv"), g.get("clv")


def project_to_ball(W: np.ndarray) -> np.ndarray:
    """Rescale columns of W in place to norms <= 1 - BALL_MARGIN."""
    norms = np.sqrt(np.einsum("dv,dv->v", W, W))
    limit = 1.0 - BALL_MARGIN
    over = norms > limit
    if over.any():
        W[:, over] *= limit / norms[over]
    return W
