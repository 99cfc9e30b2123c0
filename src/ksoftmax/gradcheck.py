"""Central finite-difference verification of analytic gradients.

Used by the `gradcheck` CLI subcommand and the acceptance suite. An
elementwise comparison passes when the absolute difference is below the
floor or the relative error is below the tolerance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import encoder as encoder_mod
from . import kernels
from . import output_layer
from . import training
from .kernels import KernelSpec

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def central_diff(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, step FD_STEP."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + FD_STEP
        fp = f(x)
        xf[i] = orig - FD_STEP
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2.0 * FD_STEP)
    return g


def mismatches(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Relative errors of the entries that agree within neither tolerance;
    empty when the two gradients agree."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = ~((diff <= ABS_FLOOR) | (diff <= REL_TOL * denom))
    return diff[bad] / np.maximum(denom[bad], 1e-300)


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


def _random_inputs(spec: KernelSpec, d: int, rng: np.random.Generator) -> list:
    """[w, h], plus one log-variance array per side for ssg/mog."""
    if kernels.KERNELS[spec.kind].in_ball:
        # keep both vectors safely inside the unit ball
        args = []
        for _ in range(2):
            v = rng.uniform(-1.0, 1.0, d)
            args.append(v * (rng.uniform(0.1, 0.8) / np.linalg.norm(v)))
    else:
        args = [rng.uniform(-2.0, 2.0, d), rng.uniform(-2.0, 2.0, d)]
    shape = kernels.variance_shape(spec)
    if shape is not None:
        args += [rng.normal(0.0, 0.5, shape), rng.normal(0.0, 0.5, shape)]
    return args


def check_kernel(kind: str, dims: Sequence[int] = (2, 8, 32),
                 trials: int = 100, seed: int = 0) -> list:
    """Analytic vs finite-difference gradients for one kernel kind in every
    argument of kernels.score: w, h and the ssg/mog log-variances.

    Returns a list of failure descriptions (empty when all comparisons
    pass). Raises ValueError when dims or trials leave nothing to check."""
    if trials < 1 or min(dims, default=0) < 1:
        raise ValueError(f"nothing to check: trials={trials}, dims={tuple(dims)}")
    rng = np.random.default_rng(seed)
    failures = []
    for d in dims:
        for trial in range(trials):
            spec = _random_spec(kind, rng)
            args = _random_inputs(spec, d, rng)
            g = kernels.grad(spec, *args)
            analytic = (g.d_w, g.d_h, g.d_w_log_var, g.d_h_log_var)
            for i in range(len(args)):
                numeric = central_diff(
                    lambda v: kernels.score(spec, *args[:i], v, *args[i + 1:]),
                    np.array(args[i], dtype=np.float64))
                if mismatches(analytic[i], numeric).size:
                    failures.append(
                        f"{kind} d={d} trial={trial}: analytic {analytic[i]} "
                        f"vs numeric {numeric}")
    return failures


def check_pipeline(config, V: int, B: int = 2, seed: int = 0) -> list:
    """Finite-difference audit of the full encoder + output-layer loss
    gradient for a TrainConfig. Returns failure descriptions."""
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
        errs = mismatches(grads[name], numeric)
        if errs.size:
            names.append(name)
            rel_errs.append(errs.max())
    if names:
        return [f"pipeline mismatch in {sorted(names)}: "
                f"max rel err {float(max(rel_errs)):.3g}"]
    return []
