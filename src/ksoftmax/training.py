"""Mini-batch training of the encoder + kernelized output layer.

Deterministic end to end under a fixed seed: initialization draws from one
seeded generator, epoch shuffles are pure functions of (seed, epoch), and
checkpoints restore training bit-exactly (parameters, optimizer slots and
position in the batch stream).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import data as data_mod
from . import encoder as encoder_mod
from . import eval as eval_mod
from . import kernels
from . import output_layer
from .errors import CorruptCheckpoint, DivergenceDetected, KsoftmaxError, NonFiniteScore
from .kernels import KernelSpec
from .output_layer import MixtureConfig, OutputParams

CHECKPOINT_MAGIC = "ksoftmax-checkpoint"
CHECKPOINT_VERSION = 1

METRIC_FLOAT_FMT = "{:.12g}"


@dataclass(frozen=True)
class TrainConfig:
    components: tuple
    n: int = 3
    d: int = 32
    d_e: Optional[int] = None  # None -> d
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    clip_norm: float = 5.0
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0
    rho: float = 0.1
    reg_across_data: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        output_layer.check_components(self.components)
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("n", "d", "d_e", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "clip_norm", "rho"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.clip_norm == 0:
            raise ValueError("clip_norm must be > 0")

    @property
    def de(self) -> int:
        return self.d_e if self.d_e is not None else self.d

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        d["components"] = tuple(KernelSpec.from_dict(c) for c in d["components"])
        return TrainConfig(**d)


@dataclass
class TrainState:
    """A model, its optimizer and its place in the batch stream, built from
    its config, V and vectors alone. ``flat`` holds the vector "params"
    and, under Adam, "adam.m" and "adam.v", each laying the tensors of
    _tensor_shapes end to end as _views does. ``mixture`` follows from the
    config and V; the arrays of ``enc`` and ``out`` and the slots
    ``opt_m``/``opt_v`` are views into the vectors. ``grad``, a vector of
    its own laid out as "params", holds a step's gradient, and ``grads``
    its views; no page of it is resident until a step writes it. A deep
    copy copies the vectors and binds its own views and gradient."""

    config: TrainConfig
    V: int
    flat: dict
    epoch: int = 0
    step: int = 0
    step_in_epoch: int = 0
    best_dev_ppl: float = math.inf
    # scratch of train_step; never checkpointed, and a copy starts empty
    ws: kernels.Workspace = dataclasses.field(
        default_factory=kernels.Workspace, repr=False, compare=False)
    mixture: MixtureConfig = dataclasses.field(init=False)
    enc: encoder_mod.EncoderParams = dataclasses.field(init=False)
    out: OutputParams = dataclasses.field(init=False)
    opt_m: dict = dataclasses.field(init=False)
    opt_v: dict = dataclasses.field(init=False)
    grad: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    grads: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg, shapes = self.config, _tensor_shapes(self.config, self.V)
        self.mixture = MixtureConfig(cfg.components, cfg.d, self.V, cfg.rho,
                                     cfg.reg_across_data)
        views = {key: _views(vec, shapes) for key, vec in self.flat.items()}
        p = views["params"]
        self.enc = encoder_mod.EncoderParams(p["enc.E"], p["enc.F"], p["enc.bias"],
                                             cfg.n)
        comp_lv = [p.get(f"out.comp_log_vars.{k}") for k in range(self.mixture.K)]
        self.out = OutputParams(p["out.W"], p.get("out.M"), p.get("out.C"),
                                p.get("out.word_log_vars"), comp_lv)
        self.opt_m, self.opt_v = (views.get(f"adam.{s}", {}) for s in "mv")
        self.grad = kernels.mapped(self.flat["params"].size)
        self.grads = _views(self.grad, shapes)

    def __deepcopy__(self, memo):
        flat = {key: np.concatenate([vec], out=kernels.mapped(vec.size))
                for key, vec in self.flat.items()}
        return dataclasses.replace(self, ws=kernels.Workspace(), flat=flat)


def _named(enc: encoder_mod.EncoderParams, out: OutputParams) -> list:
    """Ordered (name, array) pairs over the trainable tensors held in an
    encoder/output-layer pair, parameters and gradients alike."""
    pairs = [("enc.E", enc.E), ("enc.F", enc.F), ("enc.bias", enc.bias),
             ("out.W", out.W), ("out.M", out.M), ("out.C", out.C),
             ("out.word_log_vars", out.word_log_vars)]
    pairs += [(f"out.comp_log_vars.{k}", v)
              for k, v in enumerate(out.component_log_vars or ())]
    return [(name, arr) for name, arr in pairs if arr is not None]


def named_tensors(state: TrainState) -> list:
    """Ordered (name, array) pairs over every trainable tensor."""
    return _named(state.enc, state.out)


def _tensor_shapes(config: TrainConfig, V: int) -> list:
    """Ordered (name, shape) pairs over the trainable tensors of a model
    with ``config`` and V words, as named_tensors orders them; computed
    without allocating any."""
    d, de, K = config.d, config.de, len(config.components)
    shapes = [("enc.E", (V, de)), ("enc.F", (config.n * de, d)),
              ("enc.bias", (d,)), ("out.W", (d, V))]
    if K > 1:
        shapes += [("out.M", (d, K)), ("out.C", (K, d, d))]
    word, var = output_layer.variance_shapes(config.components)
    if word is not None:
        shapes.append(("out.word_log_vars", (V,) + word))
    return shapes + [(f"out.comp_log_vars.{k}", s)
                     for k, s in enumerate(var) if s is not None]


def _views(vec: np.ndarray, shapes: list) -> dict:
    """{name: view into ``vec``}: the slice table that lays the (name,
    shape) pairs end to end in ``vec``, each view of its shape."""
    sizes = [math.prod(shape) for _, shape in shapes]
    ends = itertools.accumulate(sizes)
    return {name: vec[end - size:end].reshape(shape)
            for (name, shape), size, end in zip(shapes, sizes, ends)}


def _vectors(config: TrainConfig, V: int) -> dict:
    """Fresh zero vectors (kernels.mapped) for a TrainState's ``flat``: the
    parameters and, under Adam, each slot."""
    size = sum(math.prod(shape) for _, shape in _tensor_shapes(config, V))
    keys = ("params", "adam.m", "adam.v") if config.optimizer == "adam" else ("params",)
    return {key: kernels.mapped(size) for key in keys}


def init_state(config: TrainConfig, V: int) -> TrainState:
    rng = np.random.default_rng(config.seed)
    state = TrainState(config, V, _vectors(config, V))
    enc = encoder_mod.init_encoder_params(V, config.n, config.d, config.de, rng)
    out = output_layer.init_output_params(state.mixture, rng)
    np.concatenate([arr.ravel() for _, arr in _named(enc, out)], out=state.flat["params"])
    return state


def clip_gradients(grads: dict, clip_norm: float,
                   ws: Optional[kernels.Workspace] = None) -> float:
    """Rescale grads in place so the global norm is <= clip_norm.
    Returns the pre-clip global norm, from one sum of squares per tensor
    added in order. Given ``ws``, the tensors are squared on its lanes."""
    tensors = list(grads.values())

    def squares(i, scratch):
        g = tensors[i]
        sq = np.multiply(g, g, out=kernels.buffer(scratch, "s0", g.shape))
        return float(np.add.reduce(sq, axis=None))  # np.sum, without its wrapper

    total = math.sqrt(sum(kernels.in_lanes(ws, len(tensors),
                                           sum(g.size for g in tensors), squares)))
    if total > clip_norm:
        scale = clip_norm / total
        for g in tensors:
            g *= scale
    return total


def _apply_update(state: TrainState):
    """One optimizer step over the flat vectors given ``state.grad``, in
    chunks on the lanes of ``state.ws``: each element gets the ops, in the
    order, of an update tensor by tensor."""
    cfg = state.config
    lr = cfg.learning_rate
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.step + 1
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t

    def update(c, scratch):
        g, arr = state.grad[c], state.flat["params"][c]
        tmp = kernels.buffer(scratch, "s0", g.shape)
        if cfg.optimizer == "sgd":
            arr -= np.multiply(lr, g, out=tmp)
            return
        den = kernels.buffer(scratch, "s1", g.shape)
        m, v = state.flat["adam.m"][c], state.flat["adam.v"][c]
        m *= b1
        m += np.multiply(1 - b1, g, out=tmp)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, g, out=tmp), g, out=tmp)
        mhat = np.divide(m, c1, out=tmp)
        vhat = np.divide(v, c2, out=den)
        update = np.multiply(lr, mhat, out=tmp)
        update /= np.add(np.sqrt(vhat, out=den), eps, out=den)
        arr -= update

    kernels.in_chunks(state.ws, state.grad.size, update)
    if state.mixture.uses_ball:
        kernels.project_to_ball(state.out.W)


def loss_and_grads(state: TrainState, windows: np.ndarray,
                   targets: np.ndarray):
    """Loss of one batch and its gradient with respect to every trainable
    tensor: (loss, reg_term, {name: gradient} in named_tensors order). The
    gradients are the views ``state.grads`` into ``state.grad``, valid
    until the next step.

    Raises DivergenceDetected if the loss or any gradient is non-finite.
    """
    H, enc_cache = encoder_mod.encode(state.enc, windows)
    try:
        loss_val, cache = output_layer.loss(state.mixture, state.out, H, targets,
                                            state.ws)
    except NonFiniteScore as e:
        raise DivergenceDetected(
            f"non-finite logits at step {state.step}: {e}", step=state.step,
            component=e.component)
    if not math.isfinite(loss_val):
        raise DivergenceDetected(
            f"non-finite loss at step {state.step}", step=state.step)
    grad, grads = state.grad, state.grads
    out_grads, dH = output_layer.backward(state.mixture, state.out, cache,
                                          grads["out.W"])
    enc_grads = encoder_mod.encode_backward(state.enc, enc_cache, dH, grads["enc.E"])
    for name, g in _named(enc_grads, out_grads):
        if g is not grads[name]:
            grads[name][...] = g
    if not np.isfinite(grad).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise DivergenceDetected(
            f"non-finite gradient in {name} at step {state.step}",
            step=state.step, component=name)
    return loss_val, cache.reg_term, grads


def train_step(state: TrainState, windows: np.ndarray, targets: np.ndarray):
    """One forward/backward/update step. Returns (loss, reg_term).

    Raises DivergenceDetected before applying the update if the loss or any
    gradient is non-finite, so the parameters held in ``state`` always come
    from the last finite step.
    """
    loss_val, reg_term, grads = loss_and_grads(state, windows, targets)
    clip_gradients(grads, state.config.clip_norm, state.ws)
    _apply_update(state)
    state.step += 1
    state.step_in_epoch += 1
    return loss_val, reg_term


def _epoch_steps(state: TrainState, split: data_mod.CorpusSplit):
    """Run train_step on each training batch left in ``state.epoch`` from
    ``state.step_in_epoch`` on, yielding each step's (loss, reg_term). The
    step that takes the epoch's last batch also moves ``state`` to the start
    of the next epoch, before its result is yielded."""
    cfg = state.config
    batches = data_mod.num_batches(split.train, cfg.batch_size)
    if state.step_in_epoch >= batches:
        raise KsoftmaxError("empty training split" if batches == 0 else
                            f"step_in_epoch {state.step_in_epoch} is past the "
                            f"last of the epoch's {batches} batches")
    for windows, targets in data_mod.batch_windows(
            split.train, cfg.n, cfg.batch_size, cfg.seed,
            epoch=state.epoch, start_batch=state.step_in_epoch):
        result = train_step(state, windows, targets)
        if state.step_in_epoch == batches:
            state.epoch += 1
            state.step_in_epoch = 0
        yield result


def train_steps(state: TrainState, split: data_mod.CorpusSplit, num_steps: int):
    """Advance exactly num_steps batches, crossing epoch boundaries as
    needed (no dev evaluation, no early stopping)."""
    epochs = (_epoch_steps(state, split) for _ in itertools.count())
    for _ in itertools.islice(itertools.chain.from_iterable(epochs), num_steps):
        pass
    return state


def _metrics_header(K: int) -> list:
    return (["epoch", "train_loss", "dev_ppl"]
            + [f"pi_mean_{k + 1}" for k in range(K)] + ["reg_term"])


def _metrics_row(epoch, train_loss, dev_ppl, pi_mean, reg_term) -> list:
    fmt = METRIC_FLOAT_FMT.format
    return ([str(epoch), fmt(train_loss), fmt(dev_ppl)]
            + [fmt(p) for p in pi_mean] + [fmt(reg_term)])


def check_dev_split(split: data_mod.CorpusSplit):
    """Raise KsoftmaxError when the dev split holds no token: train would
    have nothing to score after an epoch."""
    if not sum(map(len, split.dev)):
        raise KsoftmaxError("empty dev split: there is nothing to score after an epoch")


def train(config: TrainConfig, split: data_mod.CorpusSplit, V: int,
          out_dir=None, state: Optional[TrainState] = None,
          max_epochs: Optional[int] = None):
    """Full training loop with per-epoch dev evaluation and early stopping.

    Returns (best_state, metrics) where metrics is the list of per-epoch
    row dicts and best_state is the checkpoint with the lowest dev PPL.
    Writes metrics.csv, best.ckpt and last.ckpt under out_dir when given.
    A resume in which no epoch improves returns out_dir's best.ckpt, or
    the last state when there is no out_dir or no best.ckpt in it.
    A run that ends with no finite dev PPL has diverged too: on divergence
    last.ckpt is saved before DivergenceDetected propagates. An empty dev
    split raises KsoftmaxError before any step.
    """
    check_dev_split(split)
    if state is None:
        state = init_state(config, V)
    cfg = state.config
    limit = max_epochs if max_epochs is not None else cfg.max_epochs
    metrics = []
    metrics_file = writer = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "metrics.csv")
        resumed = state.epoch > 0 and os.path.exists(path)
        if resumed:
            # a crash after an epoch's row was written but before last.ckpt
            # was saved leaves rows beyond the resumed state's epoch
            with open(path, "r+b") as f:
                f.truncate(sum(len(line) for line in f.readlines()[:state.epoch + 1]))
        metrics_file = open(path, "a" if resumed else "w",
                            encoding="utf-8", newline="")
        writer = csv.writer(metrics_file)
        if not resumed:
            writer.writerow(_metrics_header(state.mixture.K))

    best_state = None
    bad_epochs = 0
    try:
        while state.epoch < limit:
            train_loss = float(np.mean([l for l, _ in _epoch_steps(state, split)]))
            nll, pi_mean, pi_var = eval_mod.mean_nll_and_pi(state, split.dev)
            dev_ppl = eval_mod.ppl_of_nll(nll)
            reg_term = cfg.rho * pi_var
            row = {"epoch": state.epoch, "train_loss": train_loss,
                   "dev_ppl": dev_ppl, "pi_mean": pi_mean.tolist(),
                   "pi_var": pi_var, "reg_term": reg_term}
            metrics.append(row)
            if writer is not None:
                writer.writerow(_metrics_row(state.epoch, train_loss, dev_ppl,
                                             pi_mean, reg_term))
                metrics_file.flush()
            if dev_ppl < state.best_dev_ppl:
                state.best_dev_ppl = dev_ppl
                best_state = copy.deepcopy(state)
                bad_epochs = 0
            else:
                bad_epochs += 1
            if out_dir is not None:
                # best first: a crash between the two leaves last.ckpt an
                # epoch behind, and the resume writes best.ckpt again
                if bad_epochs == 0:
                    save_checkpoint(best_state, os.path.join(out_dir, "best.ckpt"))
                save_checkpoint(state, os.path.join(out_dir, "last.ckpt"))
            if bad_epochs >= cfg.patience:
                break
        if not math.isfinite(state.best_dev_ppl):
            raise DivergenceDetected(
                f"no finite dev perplexity by epoch {state.epoch}", step=state.step)
    except DivergenceDetected:
        if out_dir is not None:
            save_checkpoint(state, os.path.join(out_dir, "last.ckpt"))
        raise
    finally:
        if metrics_file is not None:
            metrics_file.close()
    if best_state is None:
        # no epoch improved on the best so far: an earlier best.ckpt holds it
        best_path = os.path.join(out_dir, "best.ckpt") if out_dir is not None else None
        if best_path is not None and os.path.exists(best_path):
            return load_checkpoint(best_path), metrics
        best_state = copy.deepcopy(state)
        if best_path is not None:
            save_checkpoint(best_state, best_path)
    return best_state, metrics


# ---------------------------------------------------------------------------
# Checkpoints: text header + row-major little-endian float64 body
# ---------------------------------------------------------------------------

# a load reads no more header than this: a longer one is not a checkpoint's
HEADER_LIMIT = 1 << 20


def _checkpoint_shapes(config: TrainConfig, V: int) -> list:
    """(name, shape) of every tensor a checkpoint stores, in file order:
    the trainable tensors, then the two Adam slots of each in turn;
    computed without allocating any."""
    shapes = _tensor_shapes(config, V)
    slots = [(f"adam.{s}.{name}", shape) for name, shape in shapes for s in "mv"]
    return shapes + (slots if config.optimizer == "adam" else [])


def _body(state: TrainState) -> list:
    """The arrays of a checkpoint's body, in file order: flat["params"]
    whole, whose tensors lie end to end as _checkpoint_shapes lists them,
    then each tensor's Adam slot views m and v."""
    return [state.flat["params"]] + [
        slots[name] for name in state.opt_m for slots in (state.opt_m, state.opt_v)]


def _adam_t(state: TrainState) -> int:
    """Adam's update count: one per step under Adam, none under SGD."""
    return state.step if state.config.optimizer == "adam" else 0


def save_checkpoint(state: TrainState, path):
    """Write ``state`` to ``path`` atomically: a crash mid-write leaves any
    previous file at ``path`` intact."""
    header = io.StringIO()
    header.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
    header.write("config " + json.dumps(state.config.to_dict(), sort_keys=True) + "\n")
    header.write(f"V {state.V}\n")
    header.write(f"epoch {state.epoch}\n")
    header.write(f"step {state.step}\n")
    header.write(f"step_in_epoch {state.step_in_epoch}\n")
    header.write(f"adam_t {_adam_t(state)}\n")
    header.write(f"best_dev_ppl {state.best_dev_ppl!r}\n")
    for name, shape in _checkpoint_shapes(state.config, state.V):
        header.write(f"tensor {name} {' '.join(map(str, shape))}".rstrip() + "\n")
    header.write("end\n")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header.getvalue().encode("utf-8"))
            for arr in _body(state):
                # from the array's own memory; a copy only on a big-endian host
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> TrainState:
    """Read a checkpoint written by save_checkpoint, its body straight into
    the new state's vectors. Raises CorruptCheckpoint when the file is
    malformed or its tensors do not match the recorded configuration."""
    with open(path, "rb") as f:
        try:
            return _read_checkpoint(f)
        except CorruptCheckpoint as e:
            raise CorruptCheckpoint(f"{path}: {e}") from e
        except (ValueError, TypeError, KeyError, IndexError) as e:
            raise CorruptCheckpoint(f"{path}: malformed checkpoint: {e!r}") from e


def _header_lines(f) -> list:
    """The header lines of the checkpoint open in ``f``, its ``end`` line
    left out, leaving ``f`` at the body. The magic line is checked first,
    and no more than HEADER_LIMIT bytes are read."""
    line = f.readline(HEADER_LIMIT)
    magic = line.decode("utf-8").splitlines()[0]
    if magic.split() != [CHECKPOINT_MAGIC, str(CHECKPOINT_VERSION)]:
        raise CorruptCheckpoint(f"bad checkpoint header: {magic!r}")
    lines, read = [line], len(line)
    while line != b"end\n":
        line = f.readline(HEADER_LIMIT - read)
        read += len(line)
        if not line.endswith(b"\n"):
            raise CorruptCheckpoint(f"no end line in the header's {read} bytes")
        lines.append(line)
    return b"".join(lines).decode("utf-8").splitlines()[1:-1]


def _read_checkpoint(f) -> TrainState:
    fields = {}
    tensor_specs = []
    for line in _header_lines(f):
        key, _, rest = line.partition(" ")
        if key == "tensor":
            parts = rest.split()
            tensor_specs.append((parts[0], tuple(int(s) for s in parts[1:])))
        else:
            fields[key] = rest
    config = TrainConfig.from_dict(json.loads(fields["config"]))
    V = int(fields["V"])
    # the shapes and the body are checked before a header that promises
    # more than the file holds can allocate
    expected = _checkpoint_shapes(config, V)
    if tensor_specs != expected:
        got, want = next(pair for pair in itertools.zip_longest(tensor_specs, expected)
                         if pair[0] != pair[1])
        raise CorruptCheckpoint(f"tensor {got} where the configuration has {want}")
    size = sum(8 * math.prod(shape) for _, shape in expected)
    body = os.fstat(f.fileno()).st_size - f.tell()
    if body != size:
        raise CorruptCheckpoint(f"body is {body} bytes, expected {size}")
    state = TrainState(config, V, _vectors(config, V))
    for name in ("epoch", "step", "step_in_epoch"):
        setattr(state, name, int(fields[name]))
        if getattr(state, name) < 0:
            raise CorruptCheckpoint(f"{name} {fields[name]} is negative")
    state.best_dev_ppl = float(fields["best_dev_ppl"])
    if not state.best_dev_ppl > 0:
        raise CorruptCheckpoint(f"best_dev_ppl {fields['best_dev_ppl']} is not > 0")
    if int(fields["adam_t"]) != _adam_t(state):
        raise CorruptCheckpoint(f"adam_t {fields['adam_t']} where {config.optimizer} "
                                f"at step {state.step} gives {_adam_t(state)}")
    for arr in _body(state):
        if f.readinto(arr) != arr.nbytes:
            raise CorruptCheckpoint(f"body ends before its {size} bytes")
        if sys.byteorder == "big":
            arr.byteswap(inplace=True)
    return state


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

def _run_grid_point(args):
    config, split, V, point_dir = args
    try:
        best, metrics = train(config, split, V, out_dir=point_dir)
        row = next(r for r in metrics if r["epoch"] == best.epoch)
        return {"dev_ppl": best.best_dev_ppl, "pi_var_mean": row["pi_var"],
                "diverged": False}
    except DivergenceDetected as e:
        return {"dev_ppl": math.inf, "pi_var_mean": math.nan,
                "diverged": True, "error": str(e)}


def grid_points(base_config: TrainConfig, grid: dict) -> tuple:
    """(field names, value tuples, TrainConfigs) of every Cartesian point
    of ``grid`` (TrainConfig field name -> list of values) over
    ``base_config``, in grid_search's order. A value its field rejects
    raises ValueError, as does an empty grid."""
    if not grid:
        raise ValueError("empty grid")
    names = sorted(grid)
    points = list(itertools.product(*(grid[n] for n in names)))
    return names, points, [dataclasses.replace(base_config, **dict(zip(names, values)))
                           for values in points]


def grid_search(base_config: TrainConfig, grid: dict,
                split: data_mod.CorpusSplit, V: int, out_dir=None,
                jobs: int = 1) -> list:
    """Train every point of ``grid`` (see grid_points) and rank results by
    dev PPL. Diverging points are recorded with infinite PPL, not fatal."""
    names, points, configs = grid_points(base_config, grid)
    tasks = [(config, split, V, os.path.join(out_dir, f"point_{i:03d}") if out_dir else None)
             for i, config in enumerate(configs)]
    if jobs > 1:
        import concurrent.futures
        import multiprocessing
        # spawn, not fork: forking a process that holds lane threads can deadlock
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as ex:
            outcomes = list(ex.map(_run_grid_point, tasks))
    else:
        outcomes = [_run_grid_point(t) for t in tasks]
    results = []
    for values, outcome in zip(points, outcomes):
        row = dict(zip(names, values))
        row.update(outcome)
        results.append(row)
    results.sort(key=lambda r: r["dev_ppl"])
    for rank, row in enumerate(results, start=1):
        row["rank"] = rank
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "grid_results.csv")
        fmt = METRIC_FLOAT_FMT.format
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["rank"] + names + ["dev_ppl", "pi_var_mean", "diverged"])
            for row in results:
                w.writerow([row["rank"]]
                           + [row[n] for n in names]
                           + [fmt(row["dev_ppl"]), fmt(row["pi_var_mean"]),
                              str(row["diverged"]).lower()])
    return results
