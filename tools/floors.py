"""How far a training step is from its floors, measured five ways.

    PYTHONPATH=src python tools/floors.py replay [rounds]
    PYTHONPATH=src python tools/floors.py busy
    PYTHONPATH=src python tools/floors.py tiles [rounds]
    PYTHONPATH=src python tools/floors.py gemm
    PYTHONPATH=src python tools/floors.py buffers

``replay``: a K=1 ``pow`` step at the kernel-ordering set-up (V = 202,
n = 3, d = 32, batch 64, Adam, seed 0) through ``training.train_step``,
against a replay of the numpy calls that step makes, in its order, with
no package code between them. It first checks that 600 steps of each
give the same losses, parameters and Adam moments, then times both in
alternating blocks of 100 steps (5 blocks a round, 30 rounds by default)
and prints each side's median and quartiles per step. The replay is the
cost of the step's numpy calls alone: no change that keeps the bits and
leaves the step's arithmetic as it is can bring the step below it. The
replay follows the step at p = 2, one tile and one lane; when the step's
calls change, its bit check fails.

``busy``: three runs of 200 steps of the ``train-large-vocab-mix``
set-up (V = 7,975, ``lin pow ssg hpb``, rho 0.1), each printing its wall
time, the process's CPU time and their ratio over the CPUs it may use.

``tiles``: the same steps with ``kernels.TILE_SIZE`` swept over 32,768
to 262,144 elements, in alternating order, 100 timed steps per size and
round (6 rounds by default): median and quartiles per size, and whether
the parameters after 110 steps equal those at the default.

``gemm``: how many entries of ``H @ W`` (d = 32, V = 7,975) change bits
when the product is taken over row tiles instead of the whole batch;
then, for every batch of 1 to ``EVAL_BATCH`` rows at (d, V) = (32, 202),
(32, 1,029), (32, 7,975), (64, 7,975), (16, 7,975) and (4, 2,000), how
many change over the row chunks of a scoring pass (``kernels.row_chunks``),
and how many over flat ``CHUNK_ROWS``-row chunks, the same rule without
its multiply-add floor; beside each count, the tallest chunk any of
those batches takes, in rows and in MB of float64 logits, the height of
a lane's logits buffer. The counts hold for the BLAS that runs them: the
chunk rule was measured on OpenBLAS 0.3.31's AVX-512 kernels only.

``buffers``: every buffer the step's workspace and its lanes' scratch
hold, by key, in MiB of mapping, with the workspace's total and each
lane's, and the ``VmRSS`` and ``VmHWM`` lines of ``/proc/self/status``:
after 5 steps of the ``train-large-vocab-mix`` set-up, then after one
``eval.perplexity`` call on the same state over the first test sentences
that reach 1,024 tokens, as the ``eval-large-vocab-mix`` chunks do. A
mapping's pages cost memory only once written, so RSS is the resident
share.

BLAS runs on one thread, as in the ``ksoftmax`` programs.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from ksoftmax import data, eval as eval_mod, kernels, training  # noqa: E402
from ksoftmax.cli import parse_kernel_list  # noqa: E402
from ksoftmax.eval import EVAL_BATCH  # noqa: E402
from ksoftmax.kernels import CHUNK_ROWS, SMALL_GEMM, KernelSpec  # noqa: E402


def set_up(types: int, kinds: str, rho: float, steps: int):
    """(initial state, the first ``steps`` batches of epoch 0, the split) of
    a Zipf corpus of ``types`` types and 100,000 tokens, as the benchmark's
    workloads build them."""
    vocab, split = data.prepare_corpus(data.generate_zipf(types, 100_000, seed=0),
                                       max_size=types + 2, seed=0)
    config = training.TrainConfig(components=parse_kernel_list(kinds), n=3, d=32,
                                  batch_size=64, learning_rate=1e-3, seed=0, rho=rho)
    batches = data.batch_windows(split.train, config.n, config.batch_size, config.seed, epoch=0)
    return (training.init_state(config, vocab.V), [b for _, b in zip(range(steps), batches)],
            split)


def quartiles(seconds: list, scale=1e6) -> str:
    s = sorted(seconds)
    return (f"median {s[len(s) // 2] * scale:.2f}, p25 {s[len(s) // 4] * scale:.2f}, "
            f"p75 {s[3 * len(s) // 4] * scale:.2f} over {len(s)} steps")


def replayer(state):
    """A step of the K=1 ``pow`` (p = 2) ``state`` as its numpy calls alone:
    one tile of rows, one lane, the update in one chunk."""
    assert state.config.components == (KernelSpec("pow"),), state.config.components
    cfg, V, B = state.config, state.V, state.config.batch_size
    grads = list(state.grads.items())
    E, F, bias, W = state.enc.E, state.enc.F, state.enc.bias, state.out.W
    n, d_e = state.enc.n, E.shape[1]
    gE, gF, gbias, gW = (state.grads[k] for k in ("enc.E", "enc.F", "enc.bias", "out.W"))
    grad, params = state.grad, state.flat["params"]
    adam_m, adam_v = state.flat["adam.m"], state.flat["adam.v"]
    lsm, xbuf = np.empty((B, V)), np.empty((B, V))
    s0, s1 = np.empty(max(B * V, grad.size)), np.empty(grad.size)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    cols, rows = np.arange(d_e), np.arange(B)
    t = state.step

    def step(windows, targets):
        nonlocal t
        (windows < 0).any(), (windows >= V).any()
        X = E[windows].reshape(B, n * d_e)
        H = np.tanh(X @ F + bias)
        (targets < 0).any(), (targets >= V).any()
        pi = np.ones((B, 1))
        # forward: x = wn + hn - 2 w.h, logits -x, log-softmax in place
        L = np.matmul(H, W, out=lsm)
        wn = np.einsum("dv,dv->v", W, W)[None, :]
        hn = np.einsum("bd,bd->b", H, H)[:, None]
        x = np.add(wn, hn, out=xbuf)
        L *= 2.0
        x -= L
        np.maximum(x, 0.0, out=x)
        np.negative(x, out=L)
        np.isfinite(L).all()
        z = np.subtract(L, L.max(axis=-1, keepdims=True), out=L)
        e = np.exp(z, out=s0[:B * V].reshape(B, V))
        z -= np.log(e.sum(axis=-1, keepdims=True))
        loss = -float(L[rows, targets].mean()) + cfg.rho * float(pi.var(axis=1).mean())
        math.isfinite(loss)
        # backward: the logit cotangent over L, then through x
        qk = pi[:, 0] / B
        dL = np.multiply(qk[:, None], np.exp(L, out=L), out=L)
        dL[rows, targets] -= qk
        with np.errstate(divide="ignore", invalid="ignore"):
            pass
        np.multiply(dL, -1.0, out=dL)
        np.multiply(W, dL.sum(axis=0)[None, :], out=gW)
        np.subtract(gW, np.matmul(H.T, dL, out=s0[:W.size].reshape(W.shape)), out=gW)
        np.multiply(gW, 2.0, out=gW)
        dH = 2.0 * (H * dL.sum(axis=1)[:, None] - dL @ W.T)
        np.add(0.0, gW.reshape(-1), out=gW.reshape(-1))
        dH = np.add(0.0, dH)
        dpre = dH * (1.0 - H * H)
        dF, dbias, dX = X.T @ dpre, dpre.sum(axis=0), dpre @ F.T
        bins = windows[..., None] * d_e + cols
        gE[...] = 0.0
        np.add.at(gE.reshape(-1), bins.ravel(), dX.ravel())
        gF[...], gbias[...] = dF, dbias
        np.isfinite(grad).all()
        # clip to the global norm, then Adam
        total = math.sqrt(sum(float(np.add.reduce(np.multiply(
            g, g, out=s0[:g.size].reshape(g.shape)), axis=None)) for _, g in grads))
        if total > cfg.clip_norm:
            for _, g in grads:
                np.multiply(g, cfg.clip_norm / total, out=g)
        t += 1
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        tmp = s0[:grad.size]
        np.multiply(adam_m, b1, out=adam_m)
        np.add(adam_m, np.multiply(1 - b1, grad, out=tmp), out=adam_m)
        np.multiply(adam_v, b2, out=adam_v)
        np.add(adam_v, np.multiply(np.multiply(1 - b2, grad, out=tmp), grad, out=tmp),
               out=adam_v)
        update = np.multiply(lr, np.divide(adam_m, c1, out=tmp), out=tmp)
        vhat = np.divide(adam_v, c2, out=s1)
        np.divide(update, np.add(np.sqrt(vhat, out=s1), eps, out=s1), out=update)
        np.subtract(params, update, out=params)
        return loss

    return step


def replay(rounds: int):
    base, batches, _ = set_up(200, "pow", 0.1, 600)
    ours, theirs = copy.deepcopy(base), copy.deepcopy(base)
    step = replayer(theirs)
    for windows, targets in batches:
        assert training.train_step(ours, windows, targets)[0] == step(windows, targets)
    for name in ("params", "adam.m", "adam.v"):
        assert ours.flat[name].tobytes() == theirs.flat[name].tobytes(), name
    print(f"same bits after {len(batches)} steps: losses, parameters and Adam moments")
    ours, theirs = copy.deepcopy(base), copy.deepcopy(base)
    sides = {"train_step": lambda w, t: training.train_step(ours, w, t),
             "replay": replayer(theirs)}
    times = {name: [] for name in sides}
    for r in range(rounds):
        for name in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            for windows, targets in batches[(r % 5) * 100:(r % 5 + 1) * 100]:
                t0 = time.perf_counter()
                sides[name](windows, targets)
                times[name].append(time.perf_counter() - t0)
    for name, seconds in times.items():
        print(f"{name}: {quartiles(seconds)} (us)")


def large(steps: int):
    return set_up(10_000, "lin pow ssg hpb", 0.1, steps)


def busy():
    base, batches, _ = large(205)
    state = copy.deepcopy(base)
    for windows, targets in batches[:20]:  # map and fault in the workspace
        training.train_step(state, windows, targets)
    cpus = len(os.sched_getaffinity(0))
    for _ in range(3):
        state = copy.deepcopy(base)
        wall, cpu = time.perf_counter(), time.process_time()
        for windows, targets in batches[5:]:
            training.train_step(state, windows, targets)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(f"200 steps: wall {wall:.2f} s, CPU {cpu:.2f} s, "
              f"busy share of {cpus} CPUs {cpu / (cpus * wall):.1%}")


def tiles(rounds: int):
    base, batches, _ = large(110)
    sizes = [32768, 49152, 65536, 98304, 131072, 262144]
    default, times, final = kernels.TILE_SIZE, {s: [] for s in sizes}, {}
    for r in range(rounds):
        for size in (sizes if r % 2 == 0 else sizes[::-1]):
            kernels.TILE_SIZE = size
            state = copy.deepcopy(base)
            for i, (windows, targets) in enumerate(batches):
                t0 = time.perf_counter()
                training.train_step(state, windows, targets)
                if i >= 10:  # after a warm-up
                    times[size].append(time.perf_counter() - t0)
            final.setdefault(size, state.flat["params"].tobytes())
    kernels.TILE_SIZE = default
    for size, seconds in times.items():
        same = "identical" if final[size] == final[default] else "DIFFER"
        print(f"TILE_SIZE {size}: {quartiles(seconds, 1e3)} (ms); parameters "
              f"after {len(batches)} steps {same}")


def gemm():
    rng = np.random.default_rng(0)
    for B, rows in ((512, 8), (512, 24), (25, 24), (64, 8), (64, 24)):
        W = rng.uniform(-0.1, 0.1, size=(32, 7975))
        H = np.tanh(rng.normal(size=(B, 32)))
        tiled = np.concatenate([H[b:b + rows] @ W for b in range(0, B, rows)])
        print(f"B={B}, {rows}-row tiles: {int(((H @ W) != tiled).sum()):,} of "
              f"{B * 7975:,} entries differ from the whole-batch product")
    for d, V in ((32, 202), (32, 1029), (32, 7975), (64, 7975), (16, 7975), (4, 2000)):
        W = rng.uniform(-0.1, 0.1, size=(d, V))
        H = np.tanh(rng.normal(size=(EVAL_BATCH, d)))
        counts = {}
        for rule, small in (("the chunk rule", SMALL_GEMM),
                            (f"flat {CHUNK_ROWS}-row chunks", 0)):
            # at 0 every chunk but a joined tail has CHUNK_ROWS rows
            kernels.SMALL_GEMM = small
            try:
                chunks = [kernels.row_chunks(B, V, d) for B in range(1, EVAL_BATCH + 1)]
            finally:
                kernels.SMALL_GEMM = SMALL_GEMM
            slips = [int((H[:cs[-1].stop] @ W != np.concatenate([H[c] @ W for c in cs])).sum())
                     for cs in chunks]
            tallest = max(c.stop - c.start for cs in chunks for c in cs)
            counts[rule] = (f"{sum(slips):,} entries differ, in {sum(map(bool, slips))} "
                            f"batches, tallest chunk {tallest} rows "
                            f"({tallest * V * 8 / 1e6:.2f} MB)")
        print(f"d={d}, V={V}, every B in 1..{EVAL_BATCH}: "
              + "; ".join(f"{rule}: {text}" for rule, text in counts.items()))


def held(when: str, ws):
    print(f"{when}:")
    for name, w in [("ws", ws)] + [(f"lane {i}", lane) for i, lane in enumerate(ws.scratch)]:
        mib = {key: buf.size * 8 / 2 ** 20 for key, buf in w._buffers.items()}
        print(f"  {name}: {sum(mib.values()):.2f} MiB"
              + "".join(f"; {key} {size:.2f}" for key, size in mib.items()))
    with open("/proc/self/status") as f:
        print("  " + ", ".join(" ".join(line.split()) for line in f
                               if line.startswith(("VmRSS", "VmHWM"))))


def buffers():
    state, batches, split = large(5)
    for windows, targets in batches:
        training.train_step(state, windows, targets)
    held("after 5 steps of train-large-vocab-mix", state.ws)
    reach = itertools.accumulate(map(len, split.test))
    n = next(i for i, tokens in enumerate(reach, 1) if tokens >= 1024)
    eval_mod.perplexity(state, split.test[:n])
    held(f"after one eval.perplexity of {n} test sentences "
         f"({sum(map(len, split.test[:n])):,} tokens)", state.ws)


if __name__ == "__main__":
    what, *rest = sys.argv[1:] or ["-h"]
    if what not in ("replay", "busy", "tiles", "gemm", "buffers"):
        sys.exit(__doc__)
    {"replay": lambda: replay(int(rest[0]) if rest else 30), "busy": busy,
     "tiles": lambda: tiles(int(rest[0]) if rest else 6), "gemm": gemm,
     "buffers": buffers}[what]()
