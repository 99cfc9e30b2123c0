"""Central finite-difference verification of analytic gradients.

Used by the `gradcheck` CLI subcommand and the acceptance suite. An
elementwise comparison passes when the absolute difference is below the
floor or the relative error is below the tolerance.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import encoder as encoder_mod
from . import kernels
from . import output_layer
from .kernels import GaussianParams, KernelSpec

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray,
                 eps: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = f(x)
        xf[i] = orig - eps
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * eps)
    return g


def agree(analytic: np.ndarray, numeric: np.ndarray,
          rel_tol: float = REL_TOL, abs_floor: float = ABS_FLOOR) -> bool:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= abs_floor) | (diff <= rel_tol * denom)
    return bool(np.all(ok))


def _random_spec(kind: str, rng: np.random.Generator) -> KernelSpec:
    if kind in ("log", "pow"):
        return KernelSpec(kind, p=float(rng.uniform(1.2, 3.0)))
    if kind == "pol":
        return KernelSpec(kind, p=float(rng.integers(1, 4)),
                          alpha=float(rng.uniform(0.1, 1.0)),
                          c=float(rng.uniform(0.0, 1.0)))
    if kind == "rbf":
        return KernelSpec(kind, gamma=float(rng.uniform(0.1, 2.0)))
    if kind == "wav":
        return KernelSpec(kind, a=float(rng.uniform(0.5, 2.0)),
                          b=float(rng.uniform(0.5, 2.0)))
    if kind == "mog":
        return KernelSpec(kind, num_gauss=2,
                          mog_log_of_sum=bool(rng.integers(0, 2)))
    return KernelSpec(kind)


def _random_inputs(kind: str, d: int, rng: np.random.Generator):
    if kernels.KERNELS[kind].in_ball:
        # keep both vectors safely inside the unit ball
        w = rng.uniform(-1.0, 1.0, d)
        w *= rng.uniform(0.1, 0.8) / np.linalg.norm(w)
        h = rng.uniform(-1.0, 1.0, d)
        h *= rng.uniform(0.1, 0.8) / np.linalg.norm(h)
        return w, h
    return rng.uniform(-2.0, 2.0, d), rng.uniform(-2.0, 2.0, d)


def _gauss_checks(spec: KernelSpec, d: int, rng: np.random.Generator) -> list:
    """(analytic, numeric) pairs for the mean and log-variance of every
    Gaussian on each side of a random ssg/mog pair."""
    G = math.prod(kernels.variance_shape(spec))
    sides = [[GaussianParams(rng.uniform(-2, 2, d), float(rng.normal(0, 0.5)))
              for _ in range(G)] for _ in range(2)]
    g = kernels.grad(spec, w_gauss=sides[0], h_gauss=sides[1])
    analytic = [(g.d_w, g.d_w_log_var), (g.d_h, g.d_h_log_var)]
    checks = []
    for s, side in enumerate(sides):
        d_mean = np.reshape(analytic[s][0], (G, d))
        d_lv = np.reshape(analytic[s][1], (G,))
        for i, gi in enumerate(side):
            def f(mean, lv):
                moved = list(sides)
                moved[s] = side[:i] + [GaussianParams(mean, float(lv))] + side[i + 1:]
                return kernels.score(spec, w_gauss=moved[0], h_gauss=moved[1])
            checks.append((d_mean[i], central_diff(lambda m: f(m, gi.log_var),
                                                   gi.mean.copy())))
            checks.append((d_lv[i], central_diff(lambda lv: f(gi.mean, lv),
                                                 np.asarray(gi.log_var))))
    return checks


def check_kernel(kind: str, dims: Sequence[int] = (2, 8, 32),
                 trials: int = 100, seed: int = 0) -> list:
    """Analytic vs finite-difference gradients for one kernel kind.

    Returns a list of failure descriptions (empty when all comparisons
    pass)."""
    rng = np.random.default_rng(seed)
    failures = []
    for d in dims:
        for trial in range(trials):
            spec = _random_spec(kind, rng)
            if kernels.variance_shape(spec) is not None:
                checks = _gauss_checks(spec, d, rng)
            else:
                w, h = _random_inputs(kind, d, rng)
                g = kernels.grad(spec, w, h)
                checks = [
                    (g.d_w, central_diff(lambda v: kernels.score(spec, v, h), w.copy())),
                    (g.d_h, central_diff(lambda v: kernels.score(spec, w, v), h.copy())),
                ]
            for analytic, numeric in checks:
                if not agree(analytic, numeric):
                    failures.append(
                        f"{kind} d={d} trial={trial}: analytic {analytic} "
                        f"vs numeric {numeric}")
    return failures


def check_pipeline(config, V: int, B: int = 2, seed: int = 0,
                   rel_tol: float = REL_TOL) -> list:
    """Finite-difference audit of the full encoder + output-layer loss
    gradient for a TrainConfig. Returns failure descriptions."""
    from . import training

    rng = np.random.default_rng(seed)
    state = training.init_state(config, V)
    windows = rng.integers(0, V, size=(B, config.n))
    targets = rng.integers(0, V, size=B)

    def loss_of_state():
        H, _ = encoder_mod.encode(state.enc, windows)
        val, _ = output_layer.loss(state.mixture, state.out, H, targets)
        return val

    _, _, grads = training.loss_and_grads(state, windows, targets)

    names, rel_errs = [], []
    for name, arr in training.named_tensors(state):
        # central_diff perturbs arr, the state's own tensor, in place
        numeric = central_diff(lambda _: loss_of_state(), arr)
        analytic = grads[name]
        if not agree(analytic, numeric, rel_tol=rel_tol):
            diff = np.abs(analytic - numeric)
            denom = np.maximum(np.abs(analytic), np.abs(numeric))
            bad = ~((diff <= ABS_FLOOR) | (diff <= rel_tol * denom))
            names.append(name)
            rel_errs.append(np.max(diff[bad] / np.maximum(denom[bad], 1e-300)))
    if names:
        return [f"pipeline mismatch in {sorted(names)}: "
                f"max rel err {float(max(rel_errs)):.3g}"]
    return []
