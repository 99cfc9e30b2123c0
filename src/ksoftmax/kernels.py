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
buffers across calls; without one every array is freshly allocated. A
workspace also owns the lanes on which ``in_lanes`` runs independent
per-component work concurrently.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import dataclasses
import math
import mmap
import os
import queue
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, HpbOutsideBall, NonFiniteScore

# Margin kept between hpb vectors and the unit sphere.
BALL_MARGIN = 1e-5

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class KernelSpec:
    """One kernel kind plus its hyperparameters.

    ``alpha`` and ``gamma`` default to None, meaning 1/d; ``resolved``
    works that out against the vector dimension at evaluation time (1 when
    no dimension applies, e.g. radial curve emission). A field the kind
    does not read (see ``Kernel.fields``) must keep its default.
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
        for name in ("p", "alpha", "c", "gamma", "a", "b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.kind}: {name} must be finite, got {value}")
        if "p" in KERNELS[self.kind].fields:
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

    def resolved(self, field: str, d: Optional[int] = None) -> float:
        """The value of ``alpha`` or ``gamma`` at vector dimension ``d``."""
        value = getattr(self, field)
        if value is not None:
            return value
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
    that holds a workspace copies no buffers and no lanes.

    The workspace also owns the lanes of ``in_lanes``: their threads and
    ``scratch``, one workspace for each lane for its whole life, lane i's
    at ``scratch[i]`` (lane 0 is the calling thread).

    Buffers are anonymous memory mappings (``mapped``) rather than heap
    arrays: one taken on a lane's thread would otherwise land in that
    thread's malloc arena, which keeps the memory after the buffer is gone.
    """

    def __init__(self):
        self._buffers = {}
        self.scratch = []  # the lanes' scratch workspaces, lane i's at [i]
        self._pool = None  # (n, executor of the n - 1 lanes beside the caller)
        self._seconds = {}  # (lane body code, K) -> the last time of each call

    def take(self, key, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = mapped(size)
        return buf[:size].reshape(shape)

    def lanes(self, n: int) -> tuple:
        """(the executor of the n - 1 lanes of an n-lane call beside the
        calling thread, None for n = 1; ``scratch``, grown to n). Both grow
        only for a larger n, so passes that want different counts do not
        replace them each time."""
        self.scratch += [Workspace() for _ in range(n - len(self.scratch))]
        if n > 1 and (self._pool is None or self._pool[0] < n):
            if self._pool is not None:
                self._pool[1].shutdown(wait=False)
            self._pool = (n, concurrent.futures.ThreadPoolExecutor(n - 1, "ksoftmax-lane"))
        return (self._pool[1] if n > 1 else None), self.scratch

    def release_scratch(self):
        """Unmap the buffers of every lane's scratch; the lanes stay, and
        their next takes map buffers of the sizes then asked for."""
        for lane in self.scratch:
            lane._buffers.clear()

    def __deepcopy__(self, memo):
        return Workspace()


def mapped(size: int) -> np.ndarray:
    """A float64 vector of ``size`` zeros in an anonymous memory mapping of
    its own. A page costs memory only once written, and all of them go back
    to the system when the vector is freed: unlike a large heap array, it
    leaves no hole in the heap and does not raise malloc's threshold for
    serving later arrays from the heap. A mapping the system refuses
    (OSError) or cannot represent (OverflowError) raises MemoryError
    naming its bytes."""
    nbytes = 8 * max(size, 1)
    try:
        buf = mmap.mmap(-1, nbytes)
    except (OSError, OverflowError) as e:
        raise MemoryError(f"cannot map {nbytes:,} bytes: {e}") from None
    return np.frombuffer(buf, dtype=np.float64)[:size]


# Below this many elements in a component's B x V arrays, lane threads
# cost more than they save: the lanes then wait on the interpreter lock
# between numpy calls too short to release it. On 2 CPUs a K=4 step broke
# even at B x V = 32,000 and gained 1.1x at 64,000 and 1.36x at 512,000.
LANE_MIN_SIZE = 1 << 16

# A pass given a workspace runs everything after the GEMM, forward and
# backward, over tiles of rows of about this many elements (512 KB of
# float64), which stay in a core's cache across the kernel's elementwise
# passes; a numpy call on a tile is still long enough for the lanes.
TILE_SIZE = LANE_MIN_SIZE

# A scoring pass takes the product H @ W over chunks of rows, which gives
# the whole-batch product's bits when two rules hold (row_chunks). OpenBLAS
# 0.3.31's AVX-512 kernels, on one thread, gave other bits in the last
# V mod 8 columns for a chunk not starting at a multiple of 24 rows, and
# for one of at most 10^6 multiply-adds (its small-matrix kernel) when the
# whole batch does more. So 24 rows, the alignment the bits need: at
# V = 7975 a 512-row batch takes 21 products and no chunk reaches 48 rows,
# where 96-row chunks took 5 and reached 191. The 16 extra products cost
# about 1.4 ms per component per 512-row batch (medians of alternating
# timings at d = 32: 6.9 ms for the 21 products, 5.5 ms for the 5), about
# 3% of a K = 4 scoring pass on 2 lanes (72 against 70 ms).
CHUNK_ROWS = 24
SMALL_GEMM = 10 ** 6


def row_chunks(B: int, V: int, d: int) -> list:
    """The row chunks over which a scoring pass takes the product of B x d
    contexts and d x V words: one chunk per multiple of R rows, R the least
    multiple of CHUNK_ROWS whose chunk does more than SMALL_GEMM
    multiply-adds, a tail shorter than R joining the chunk before it. So
    each chunk starts at a multiple of CHUNK_ROWS, does more than
    SMALL_GEMM multiply-adds or is the whole batch, and holds fewer than
    2R rows."""
    R = CHUNK_ROWS * (1 + SMALL_GEMM // max(CHUNK_ROWS * V * d, 1))
    bounds = [i * R for i in range(max(B // R, 1))] + [B]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def lane_count(K: int, size: int) -> int:
    """Lanes for K independent components whose B x V arrays hold ``size``
    elements: one per CPU this process may run on, at most K, and just one
    below LANE_MIN_SIZE."""
    return min(K, len(os.sched_getaffinity(0))) if size >= LANE_MIN_SIZE else 1


def in_lanes(ws: Optional[Workspace], K: int, size: int, body: Callable) -> list:
    """[body(k, scratch) for k in range(K)], the calls spread over the lanes
    of ``ws`` (lane_count(K, size) of them); ``scratch`` is the scratch
    workspace of the lane running the call, None without ``ws``. A call may
    write only to its lane's scratch, to buffers under keys tagged with its
    k and to its own slices of shared arrays, so the results do not depend
    on the lane count.

    With one lane, or no workspace, the calls run in turn on the calling
    thread. Otherwise the calling thread is lane 0, and lanes 1 to n - 1
    run on the executor of ``ws.lanes(n)[0]`` in copies of the caller's
    context, so the caller's ``np.errstate`` holds in every lane. Lane i
    always runs on ``ws.scratch[i]``. Each lane takes the next call not
    yet taken until none is left. Every call finishes before an exception
    is raised, and the one raised is that of the lowest k, the call at
    which the serial loop stops.
    """
    if ws is None:
        return [body(k, None) for k in range(K)]
    n = lane_count(K, size)
    pool, scratch = ws.lanes(n)
    if pool is None:
        return [body(k, scratch[0]) for k in range(K)]
    seconds = ws._seconds.setdefault((body.__code__, K), [0.0] * K)
    results, errors = [None] * K, {}
    todo = queue.SimpleQueue()
    # longest first, by the last call's times, so no lane idles while
    # another runs the slowest component last; then one stop per lane
    for k in sorted(range(K), key=lambda k: -seconds[k]) + [None] * n:
        todo.put(k)

    def lane(i):
        for k in iter(todo.get, None):
            t0 = time.perf_counter()
            try:
                results[k] = body(k, scratch[i])
            except Exception as e:  # raised once every lane is done
                errors[k] = e
            seconds[k] = time.perf_counter() - t0

    futures = [pool.submit(contextvars.copy_context().run, lane, i) for i in range(1, n)]
    lane(0)
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def in_chunks(ws: Optional[Workspace], size: int, body: Callable) -> list:
    """[body(chunk, scratch) for each chunk], where the chunks are the
    slices of range(size) TILE_SIZE elements long (the last may be
    shorter), spread over the lanes of ``ws`` as in_lanes spreads
    components; below LANE_MIN_SIZE elements in all they stay on the
    calling thread, and a single chunk is one direct call. An elementwise
    body gives the same bits in any chunking and on any lane."""
    if size <= TILE_SIZE:  # one chunk: called directly, on lane 0's scratch
        return [body(slice(0, size), ws and ws.lanes(1)[1][0])]
    starts = range(0, size, TILE_SIZE)
    return in_lanes(ws, len(starts), size, lambda i, scratch: body(
        slice(starts[i], starts[i] + TILE_SIZE), scratch))


def buffer(ws: Optional[Workspace], key, shape) -> np.ndarray:
    """``ws.take(key, shape)``, or a fresh array when there is no workspace."""
    return np.empty(shape) if ws is None else ws.take(key, shape)


def _kept(st, name) -> np.ndarray:
    """The tile's buffer for the statistic ``name`` that this component's
    backward reads: its rows of the B x V buffer under (name, k) in the
    workspace "ws". Without "ws" the pass only scores, and it is the lane's
    scratch under ``name``; without either workspace it is fresh."""
    ws = st.get("ws")
    if ws is not None:
        return ws.take((name, st["k"]), st["shape"])[st["rows"]]
    return buffer(st.get("scratch"), name, st["out"].shape)


def _scratch(st, name, shape) -> np.ndarray:
    """The lane's scratch buffer ``name`` ("s0" or "s1") of ``shape``, free
    for any use until the next take; fresh without a lane."""
    return buffer(st.get("scratch"), name, shape)


def _add_rows(st, name, a):
    """Add the rows of ``a`` in order to the per-word sum ``name`` among the
    pass's cotangents st["g"]. Over the pass's tiles this gives the bits of
    summing the whole batch along axis 0 at once: numpy adds axis 0 of a
    C-contiguous array row by row."""
    # sum(a, start) adds each row of a to start in turn
    st["g"][name] = sum(a, st["g"][name]) if name in st["g"] else a.sum(axis=0)


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

    Both run on one tile of rows at a time, ``st`` the tile's statistics.
    ``score(spec, st)`` maps them to logits, in "out" or in another array.
    ``st`` holds "d" (the dimension, None when unknown), the tile's arrays
    "out" and "dot" or "x", beside "x" the norms "wn" (1 x V) and "hn"
    (rows x 1), for ssg/mog the word and component log-variances
    "wlv"/"clv", and "rows", the tile's slice of the batch (from row "b0"
    on, 0 when absent). In the batched path it also holds the workspace
    "ws" that keeps what backward reads, B x V under keys tagged with the
    component index "k" ("shape" is (B, V)), and the lane's "scratch"
    workspace, whose "s0" and "s1" hold only temporaries, each None when
    absent (fresh arrays). The keep rule: each B x V statistic the VJP
    reads is taken with ``_kept`` under its own name, x only where
    ``reads_x(spec)`` (else it is lane scratch, which the next tile
    overwrites), and the VJP reads no other; what else it needs it
    recomputes with the score's ops (hpb's z, mog's log-of-sum pair terms).
    ``kink(spec, st)``, run on a tile just before its VJP, returns the
    mask of kinks; it may add to ``st`` what the VJP reads (hpb's z).
    ``vjp(spec, st, dL, kink)`` maps the tile's cotangent of the logits to
    cotangents of those entries, with the zero subgradient where the
    ``kink`` mask is set; a per-word term is added to st["g"] with
    ``_add_rows`` instead, and ``close(spec, st)`` maps the sums to the
    word and component cotangents once the last tile is done. The VJP
    leaves ``st`` unchanged but may overwrite ``dL``, and a returned
    cotangent may be ``dL`` itself.
    """

    stat: str                                    # "dot" or "x"
    score: Callable
    vjp: Callable
    kink: Callable = lambda spec, st: None       # -> mask of kinks, or None
    var_shape: Callable = lambda spec: None      # -> component log-variance shape
    in_ball: bool = False                        # vectors must lie in the unit ball
    fields: tuple = ()                           # the KernelSpec fields the kind reads
    close: Callable = lambda spec, st: {}        # -> cotangents from st["g"]
    reads_x: Callable = lambda spec: True        # -> whether the VJP reads x


def _pol_score(spec, st):
    base = np.multiply(spec.resolved("alpha", st["d"]), st["dot"], out=_kept(st, "base"))
    st["base"] = np.add(base, spec.c, out=base)
    return base ** int(spec.p)


def _pol_vjp(spec, st, dL, kink):
    p = int(spec.p)
    return {"dot": dL * (p * spec.resolved("alpha", st["d"]) * st["base"] ** (p - 1))}


def _radial(score, dphi, fields, kink=Kernel.kink,
            reads_x=lambda spec: spec.p != 2.0) -> Kernel:
    """A kernel that is a profile of the squared distance x: ``score`` as
    in Kernel, and ``dphi(spec, st, out)``, its derivative in x, written
    into ``out`` from x and what the score kept, or a constant. By default
    the VJP reads x only off p = 2: there pow's dphi is the constant -1
    and there is no kink."""
    def vjp(spec, st, dL, kink_mask):
        # at x = 0 with p < 2 dphi is non-finite; kink_mask replaces it
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = dphi(spec, st, _scratch(st, "s0", dL.shape))
        if kink_mask is not None:
            dx[kink_mask] = 0.0
        return {"x": np.multiply(dL, dx, out=dL)}
    return Kernel("x", score, vjp, kink, fields=fields, reads_x=reads_x)


def _pow_score(spec, st):
    # at p = 2 x ** 1.0 is x itself, for every value a squared distance holds
    t = st["x"] if spec.p == 2.0 else np.power(st["x"], 0.5 * spec.p, out=st["out"])
    return np.negative(t, out=st["out"])


def _pow_dphi(spec, st, out):
    if spec.p == 2.0:  # -p/2 x^0: no x is read
        return -1.0
    dx = np.power(st["x"], 0.5 * spec.p - 1.0, out=out)
    return np.multiply(-0.5 * spec.p, dx, out=out)


def _log_score(spec, st):
    x, t = st["x"], _kept(st, "power")
    if spec.p == 2.0:  # x ** 1.0 is x, as in _pow_score
        np.copyto(t, x)
    else:
        np.power(x, 0.5 * spec.p, out=t)
    st["power"] = t
    return np.negative(np.log1p(t, out=st["out"]), out=st["out"])


def _log_dphi(spec, st, out):
    # -log1p(x^(p/2)) has pow's derivative over the kept x^(p/2) + 1
    return np.divide(_pow_dphi(spec, st, out),
                     np.add(st["power"], 1.0, out=_scratch(st, "s1", out.shape)), out=out)


def _rbf_score(spec, st):
    # exp(-gamma x) is both the logits and what the VJP reads
    x = st["x"]
    e = np.multiply(-spec.resolved("gamma", st["d"]), x, out=_kept(st, "exp"))
    st["exp"] = np.exp(e, out=e)
    return e


def _rbf_dphi(spec, st, out):
    return np.multiply(-spec.resolved("gamma", st["d"]), st["exp"], out=out)


def _below_p2_kink(spec, st):
    return st["x"] == 0.0 if spec.p < 2.0 else None


def _hpb_z(st, ab, z):
    """z = max(1 + 2 x / (Bn A), 1) into ``z``, given the product Bn A in
    ``ab``: the forward's ops, which the VJP repeats for the same bits."""
    np.multiply(2.0, st["x"], out=z)
    z /= ab
    np.add(1.0, z, out=z)
    return np.maximum(z, 1.0, out=z)


def _hpb_score(spec, st):
    for side, norms, first in (("word column", st["wn"], 0),
                               ("context row", st["hn"], st.get("b0", 0))):
        if (norms >= 1.0).any():
            raise HpbOutsideBall(
                f"{side} {first + int(np.argmax(norms >= 1.0))} has norm >= 1")
    if "A" not in st:  # the word term, once per pass
        st["A"] = 1.0 - st["wn"]
    st["Bn"] = Bn = 1.0 - st["hn"]
    L = np.multiply(Bn, st["A"], out=st["out"])
    return np.negative(np.arccosh(_hpb_z(st, L, _scratch(st, "s0", L.shape)), out=L), out=L)


def _hpb_kink(spec, st):
    # z is not kept: it is recomputed here, and left in st with Bn A for
    # the VJP, which runs next
    st["ab"] = ab = np.multiply(st["Bn"], st["A"], out=_scratch(st, "s1", st["x"].shape))
    st["z"] = z = _hpb_z(st, ab, _scratch(st, "s0", ab.shape))
    return z <= 1.0


def _hpb_vjp(spec, st, dL, kink):
    A, Bn, x, z = st["A"], st["Bn"], st["x"], st["z"]
    # dz = -dL / sqrt(z^2 - 1)
    t = np.multiply(z, z, out=z)
    t -= 1.0
    np.sqrt(t, out=t)
    dz = np.negative(dL, out=dL)
    with np.errstate(divide="ignore", invalid="ignore"):
        dz /= t
    if kink is not None:
        dz[kink] = 0.0
    inv_ab = np.divide(1.0, st["ab"], out=st["ab"])
    # z depends on the norms through A = 1 - wn and Bn = 1 - hn, both via
    # u = dz (2 x) inv_ab
    u = np.multiply(2.0, x, out=t)
    np.multiply(dz, u, out=u)
    u *= inv_ab
    dx = np.multiply(dz, 2.0, out=dz)
    dx *= inv_ab
    _add_rows(st, "wn", np.divide(u, A, out=inv_ab))
    return {"x": dx, "hn": np.divide(u, Bn, out=inv_ab).sum(axis=1, keepdims=True)}


def _wav_score(spec, st):
    x, c, e = st["x"], _kept(st, "cos"), _kept(st, "exp")
    st["cos"] = np.cos(np.divide(x, spec.a, out=c), out=c)
    # x / -b has the bits of -x / b: IEEE division is symmetric in sign
    st["exp"] = np.exp(np.divide(x, -spec.b, out=e), out=e)
    return np.multiply(c, e, out=st["out"])


def _wav_vjp(spec, st, dL, kink):
    # dx = -exp(-x / b) (sin(x / a) / a + cos(x / a) / b), from the kept cos, exp
    dx = np.divide(st["x"], spec.a, out=_scratch(st, "s0", dL.shape))
    np.sin(dx, out=dx)
    dx /= spec.a
    dx += np.divide(st["cos"], spec.b, out=_scratch(st, "s1", dL.shape))
    np.multiply(np.negative(st["exp"], out=_scratch(st, "s1", dL.shape)), dx, out=dx)
    return {"x": np.multiply(dL, dx, out=dL)}


def _gauss_ell(d, x, s, out=None):
    """log of the integral of two spherical Gaussians in d dimensions with
    squared mean distance x and summed variance s."""
    return np.subtract(-0.5 * d * (LOG_2PI + np.log(s)),
                       np.divide(x, 2.0 * s, out=out), out=out)


def _gauss_ell_vjp(d, x, s, g, dx=None, ds=None):
    """(x, s) cotangents of _gauss_ell given its cotangent g, written into
    ``dx`` and ``ds`` when they are given; ``dx`` may be ``g`` itself."""
    ds = np.divide(x, 2.0 * s * s, out=ds)
    np.add(-0.5 * d / s, ds, out=ds)
    np.multiply(g, ds, out=ds)
    return np.multiply(g, -1.0 / (2.0 * s), out=dx), ds


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
    if "s" not in st:  # the word terms, once per pass
        st["s"] = np.exp(st["wlv"]) + math.exp(float(st["clv"]))
    return _gauss_ell(st["d"], st["x"], st["s"], st["out"])


def _ssg_vjp(spec, st, dL, kink):
    dx, ds = _gauss_ell_vjp(st["d"], st["x"], st["s"], dL, dL, _scratch(st, "s0", dL.shape))
    _add_rows(st, "ds", ds)
    return {"x": dx}


def _ssg_close(spec, st):
    ds_v = st["g"]["ds"]
    return {"wlv": ds_v * np.exp(st["wlv"]),
            "clv": np.float64(ds_v.sum() * math.exp(float(st["clv"])))}


def _mog_score(spec, st):
    """Each word and each context carry G Gaussians sharing one mean; s is
    V x G x G over (word Gaussian, context Gaussian) pairs."""
    d, x = st["d"], st["x"]
    if "s" not in st:  # the word terms, once per pass
        st["s"] = s = np.exp(st["wlv"])[:, :, None] + np.exp(st["clv"])[None, None, :]
        if not spec.mog_log_of_sum:
            # the sum over pairs is affine in the shared x
            st["c2"] = (1.0 / (2.0 * s)).sum(axis=(1, 2))
            st["c0"] = -0.5 * d * (LOG_2PI + np.log(s)).sum(axis=(1, 2))[None, :]
    if spec.mog_log_of_sum:  # the VJP recomputes ell with this op
        return _log_mean_exp(_gauss_ell(d, x[:, :, None, None], st["s"]))
    L = np.multiply(x, st["c2"][None, :], out=st["out"])
    return np.subtract(st["c0"], L, out=L)


def _mog_vjp(spec, st, dL, kink):
    if spec.mog_log_of_sum:
        x, s = st["x"][:, :, None, None], st["s"]
        dell = dL[:, :, None, None] * _pair_posterior(_gauss_ell(st["d"], x, s))
        dx, ds = _gauss_ell_vjp(st["d"], x, s, dell)
        _add_rows(st, "ds", ds)
        return {"x": dx.sum(axis=(2, 3))}
    # the sums over pairs need only the column sums of dL and of dL x
    _add_rows(st, "dL", dL)
    _add_rows(st, "dLx", dL * st["x"])
    return {"x": np.multiply(dL, -st["c2"], out=dL)}


def _mog_close(spec, st):
    d, s, g = st["d"], st["s"], st["g"]
    ds = g["ds"] if spec.mog_log_of_sum else (
        (-0.5 * d / s) * g["dL"][:, None, None] + (1.0 / (2.0 * s * s)) * g["dLx"][:, None, None])
    return {"wlv": ds.sum(axis=2) * np.exp(st["wlv"]),
            "clv": ds.sum(axis=(0, 1)) * np.exp(st["clv"])}


KERNELS = {
    "lin": Kernel("dot", lambda spec, st: st["dot"],
                  lambda spec, st, dL, kink: {"dot": dL}),
    "log": _radial(_log_score, _log_dphi, ("p",), _below_p2_kink),
    "pow": _radial(_pow_score, _pow_dphi, ("p",), _below_p2_kink),
    "pol": Kernel("dot", _pol_score, _pol_vjp, fields=("p", "alpha", "c")),
    "rbf": _radial(_rbf_score, _rbf_dphi, ("gamma",), reads_x=lambda spec: False),
    "ssg": Kernel("x", _ssg_score, _ssg_vjp, var_shape=lambda spec: (), close=_ssg_close),
    "mog": Kernel("x", _mog_score, _mog_vjp,
                  var_shape=lambda spec: (spec.num_gauss,),
                  fields=("num_gauss", "mog_log_of_sum"), close=_mog_close),
    "hpb": Kernel("x", _hpb_score, _hpb_vjp, kink=_hpb_kink, in_ball=True),
    "wav": Kernel("x", _wav_score, _wav_vjp, fields=("a", "b")),
}

KINDS = tuple(KERNELS)


def variance_shape(spec: KernelSpec):
    """Shape of one component's log-variance parameter: () for ssg, (G,)
    for mog, None for kinds without Gaussian parameters."""
    return KERNELS[spec.kind].var_shape(spec)


def scale_context(spec: KernelSpec, d: int, a: np.ndarray) -> np.ndarray:
    """``a`` times the constant that keeps tanh-bounded contexts (norm <=
    sqrt(d)) strictly inside the unit ball, for kinds that need it; ``a``
    itself otherwise, the bits of ``a * 1.0``."""
    return a * ((1.0 - BALL_MARGIN) / math.sqrt(d)) if KERNELS[spec.kind].in_ball else a


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
    st = {"d": 1, kernel.stat: row, "out": np.empty(row.shape), "rows": slice(0, 1),
          "wn": np.zeros((1, 1)), "hn": np.zeros((1, 1)), "g": {}}
    shape = kernel.var_shape(spec)
    if shape is not None:
        st.update(wlv=np.zeros(row.shape[1:] + shape), clv=np.zeros(shape))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = kernel.score(spec, st)
        kernel.kink(spec, st)  # for what it adds to st; its mask is not applied
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
    st = {"d": w.shape[0], "out": np.empty((1, 1)), "rows": slice(0, 1)}
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


def grad(spec: KernelSpec, w, h, w_log_var=None, h_log_var=None) -> KernelGrad:
    """Analytic gradient of score() with respect to its vector arguments
    (and log-variances for ssg/mog), from the kind's VJP."""
    kernel = KERNELS[spec.kind]
    st, w, h = _pair_stats(spec, w, h, w_log_var, h_log_var)
    kernel.score(spec, st)  # checks the inputs and fills in what the VJP reads
    kink = kernel.kink(spec, st)
    if kink is not None and kink.any():
        # documented zero subgradient at the w == h kink
        return KernelGrad(d_w=np.zeros_like(w), d_h=np.zeros_like(h), singular=True)
    g = _vjp(spec, [st], np.ones((1, 1)))
    if kernel.stat == "dot":
        c = g["dot"][0, 0]
        d_w, d_h = c * h, c * w
    else:
        c = 2.0 * g["x"][0, 0]
        d_w, d_h = c * (w - h), c * (h - w)
    if "wn" in g:
        d_w = d_w + 2.0 * g["wn"][0] * w
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
                   ws: Optional[Workspace] = None, k: int = 0,
                   out: Optional[np.ndarray] = None,
                   scratch: Optional[Workspace] = None,
                   each: Optional[Callable] = None) -> tuple:
    """Logit matrix L with L[b, v] = score(spec, W[:, v], H[b]), plus
    ``word_log_vars[v], comp_log_vars`` for ssg/mog.

    W is d x V (columns are word vectors), H is B x d. ssg expects
    ``word_log_vars`` of shape (V,) and a scalar ``comp_log_vars``; mog
    expects (V, G) and (G,). Returns (L, cache); the cache, all that
    backward_logits reads, is one dict per tile: W, H and the statistics
    of the tile's rows that the kind's VJP reads.

    A non-finite logit raises NonFiniteScore naming the mixture component
    index ``k``. L is written to ``out`` when given (B x V). Given a
    workspace, everything after the GEMM runs over tiles of rows of about
    TILE_SIZE elements; without either workspace it runs on the whole
    batch, and every array is fresh. The statistics the cache keeps are
    the tiles' rows of B x V buffers taken from the workspace ``ws`` under
    keys tagged with ``k``, valid until the next call given ``ws`` and the
    same ``k``: those the kind's VJP reads (``Kernel``'s keep rule), pol's
    base among them, and no x the VJP does not read. The temporaries, and
    such an x, come from the lane workspace ``scratch``.
    Given ``scratch`` but no ``ws`` the pass only scores: the statistics
    are taken from the scratch too, each tile overwriting the last, and
    the cache, only the last tile's dict, is not valid for backward_logits.
    It takes the GEMM over ``row_chunks``, each chunk's tiles before the
    next chunk's product, which gives the whole-batch product's bits on
    one BLAS thread. Without ``out`` each chunk's logits overwrite the
    last in the scratch's "s1", of the largest chunk's height, and L is
    that buffer.

    ``each(rows, L[rows])``, when given, is called on each tile once its
    logits are checked; it may overwrite them.
    """
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    if W.ndim != 2 or H.ndim != 2 or W.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"W {W.shape} vs H {H.shape}")
    if W.shape[1] < 2:
        raise DimensionMismatch("need V >= 2")
    kernel = KERNELS[spec.kind]
    B, V = H.shape[0], W.shape[1]
    scoring = ws is None and scratch is not None
    # BLAS gets other bits for other row counts, except over row_chunks
    chunks = row_chunks(B, V, W.shape[0]) if scoring else [slice(0, B)]
    if out is None:
        out = buffer(scratch if scoring else None, "s1",
                     (max(c.stop - c.start for c in chunks), V))
    base = {"d": W.shape[0], "W": W, "H": H, "ws": ws, "k": k, "shape": (B, V)}
    if kernel.stat == "x":
        base["wn"] = np.einsum("dv,dv->v", W, W)[None, :]
        hn = np.einsum("bd,bd->b", H, H)[:, None]
        keep_x = kernel.reads_x(spec)
    if kernel.var_shape(spec) is not None:
        if word_log_vars is None or comp_log_vars is None:
            raise DimensionMismatch(f"{spec.kind} needs word and component log-variances")
        base.update(wlv=np.asarray(word_log_vars, dtype=np.float64),
                    clv=np.asarray(comp_log_vars, dtype=np.float64))
    step = max(1, B if ws is None and scratch is None else TILE_SIZE // V)
    tiles, st = [], base
    for c in chunks:
        # a chunk's logits go to its rows of a B-row ``out``, else to the
        # first rows, over the last chunk's
        L = np.matmul(H[c], W, out=out[c] if len(out) == B else out[:c.stop - c.start])
        for b0 in range(c.start, max(c.stop, 1), step):  # an empty batch is one empty tile
            rows = slice(b0, min(b0 + step, c.stop))
            # a tile's dict starts from the previous one's, so the terms a
            # kind computes per word are computed once per pass
            st = dict(st, rows=rows, b0=b0, out=L[b0 - c.start:rows.stop - c.start],
                      scratch=scratch)
            tile = st["out"]  # the dot products, then the logits
            if kernel.stat == "x":
                st["hn"] = hn[rows]
                x = _kept(st, "x") if keep_x else buffer(scratch, "x", tile.shape)
                st["x"] = _sq_dist(st["wn"], st["hn"], tile, x)
            else:
                st["dot"] = tile
            scored = kernel.score(spec, st)
            if scored is not tile:  # pol, rbf and mog's log-of-sum score elsewhere
                tile[...] = scored
            for name in ("dot", "out", "scratch"):  # no VJP reads them
                st.pop(name, None)
            if not np.isfinite(tile).all():
                b, v = np.argwhere(~np.isfinite(tile))[0]
                raise NonFiniteScore(f"component {k} ({spec.kind}): non-finite "
                                     f"{spec.kind} logit at (b={b0 + b}, v={v})",
                                     component=k)
            if each is not None:
                each(rows, tile)
            # a pass that only scores keeps just its last tile: the
            # statistics of the others are the lane's scratch, overwritten
            tiles = [st] if scoring else [*tiles, st]
    return out, tiles


def _vjp(spec: KernelSpec, tiles: list, dL: np.ndarray,
         scratch: Optional[Workspace] = None, each: Optional[Callable] = None) -> dict:
    """The kind's VJP over the tiles of a pass in turn, given the cotangent
    dL of the logits, which it overwrites (``each(rows, dL[rows])``, when
    given, first writes the tile's): the cotangent of the kind's statistic
    in dL itself, of any other entry per row in a B-row array; the per-word
    sums under their names, and what the kind's closing step makes of
    them."""
    kernel = KERNELS[spec.kind]
    g = {kernel.stat: dL}
    for st in tiles:
        rows = st["rows"]
        if each is not None:
            each(rows, dL[rows])
        st = dict(st, scratch=scratch, g=g)
        for name, v in kernel.vjp(spec, st, dL[rows], kernel.kink(spec, st)).items():
            if name not in g:
                g[name] = np.empty((len(dL),) + v.shape[1:])
            g[name][rows] = v  # numpy skips the copy where v is dL[rows] itself
    g.update(kernel.close(spec, st))
    return g


def backward_logits(spec: KernelSpec, cache: list, dL: np.ndarray,
                    scratch: Optional[Workspace] = None,
                    each: Optional[Callable] = None,
                    dW: Optional[np.ndarray] = None):
    """Backpropagate dLoss/dL through forward_logits, given its cache.

    Returns (dW, dH, d_word_log_vars, d_comp_log_vars); the last two are
    None for kernels without Gaussian parameters. ``dL`` may be
    overwritten. The kind's VJP runs tile by tile over the cache's tiles,
    ``each(rows, dL[rows])``, when given, writing each tile's cotangent
    first; both GEMMs run on the whole batch. dW is written to ``dW``
    (C-contiguous, W's shape) when given, and is a fresh array otherwise.
    ``dW`` may share memory with ``dL``: it is written only once both
    products have read the cotangent. The other temporaries come from the
    lane workspace ``scratch``.
    """
    W, H = cache[0]["W"], cache[0]["H"]
    kernel = KERNELS[spec.kind]
    g = _vjp(spec, cache, dL, scratch, each)
    dW = np.empty(W.shape) if dW is None else dW
    if kernel.stat == "dot":
        dH = g["dot"] @ W.T
        np.copyto(dW, np.matmul(H.T, g["dot"], out=buffer(scratch, "s0", W.shape)))
    else:
        # chain rule through x = wn + hn - 2 w.h; every VJP leaves its
        # scratch free by now, and none returns dx in it
        dx = g["x"]
        colsum = dx.sum(axis=0)
        hx = np.matmul(H.T, dx, out=buffer(scratch, "s0", W.shape))
        dH = 2.0 * (H * dx.sum(axis=1)[:, None] - dx @ W.T)
        np.multiply(W, colsum[None, :], out=dW)
        dW -= hx
        dW *= 2.0
    if "wn" in g:
        t = np.multiply(2.0, W, out=buffer(scratch, "s0", W.shape))
        dW += np.multiply(t, g["wn"], out=t)
        dH = dH + 2.0 * H * g["hn"]
    return dW, dH, g.get("wlv"), g.get("clv")


def project_to_ball(W: np.ndarray) -> np.ndarray:
    """Rescale columns of W in place to norms <= 1 - BALL_MARGIN."""
    norms = np.sqrt(np.einsum("dv,dv->v", W, W))
    limit = 1.0 - BALL_MARGIN
    over = norms > limit
    if over.any():
        # one dense pass: x * 1.0 is exact, and a zero column is not divided
        W *= np.divide(limit, norms, out=np.ones_like(norms), where=over)[None, :]
    return W
