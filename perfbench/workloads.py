"""The three benchmark workloads: inputs, timed set-up, timed loop, checks.

Each workload is built from the seed it is given: the corpus, the split and
the model initialisation all come from that one seed. ``Sizes`` holds the
shapes; ``TINY`` shrinks them for the smoke test.

A workload's timed loop repeats one unit of work (an epoch, a training
step, an eval pass over a test chunk) until its time is up, but always does
at least the fixed work that defines its quality numbers, so ``ppl`` and
``train_loss`` are the same at a fixed seed however fast the machine is.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

from ksoftmax import data, eval as eval_mod, training
from ksoftmax.kernels import KernelSpec
from ksoftmax.training import TrainConfig


@dataclass(frozen=True)
class Sizes:
    zipf_types: int
    corpus_tokens: int
    epochs: int = 2           # train-small-vocab: epochs per episode
    loss_steps: int = 16      # train-large-vocab-mix: steps averaged into train_loss
    chunk_tokens: int = 1024  # eval-large-vocab-mix: tokens per timed eval call


FULL = {
    "train-small-vocab": Sizes(zipf_types=200, corpus_tokens=100_000),
    "train-large-vocab-mix": Sizes(zipf_types=10_000, corpus_tokens=100_000),
    "eval-large-vocab-mix": Sizes(zipf_types=10_000, corpus_tokens=100_000),
}
TINY = {
    "train-small-vocab": Sizes(zipf_types=48, corpus_tokens=3_000),
    "train-large-vocab-mix": Sizes(zipf_types=48, corpus_tokens=3_000, loss_steps=4),
    "eval-large-vocab-mix": Sizes(zipf_types=48, corpus_tokens=3_000, chunk_tokens=128),
}

SMALL_KINDS = ("pow",)
MIX_KINDS = ("lin", "pow", "ssg", "hpb")


@dataclass
class Phase:
    """What one timed loop measured."""

    unit: str                 # what one sample times
    seconds: list             # per-sample wall seconds
    tokens: list              # per-sample tokens processed
    ppl: float
    train_loss: float | None
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)  # workload-specific figures

    @property
    def tokens_per_s(self) -> float:
        return median([t / s for t, s in zip(self.tokens, self.seconds)])


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return math.nan
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q):
    """Nearest-rank percentile."""
    values = sorted(values)
    if not values:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]


def n_tokens(sentences) -> int:
    return sum(len(s) for s in sentences)


def _corpus(sizes: Sizes, seed: int):
    lines = data.generate_zipf(sizes.zipf_types, sizes.corpus_tokens, seed=seed)
    return data.prepare_corpus(lines, max_size=sizes.zipf_types + 2, seed=seed)


def _config(kinds, seed: int, rho: float) -> TrainConfig:
    return TrainConfig(components=tuple(KernelSpec(k) for k in kinds),
                       n=3, d=32, batch_size=64, learning_rate=1e-3,
                       seed=seed, rho=rho)


class Workload:
    name = ""
    why = ""

    def __init__(self, sizes: Sizes, seed: int, work_dir: str):
        self.sizes = sizes
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        """Everything before the timed loop; timed as setup_s. It includes
        one init_state, as a user's run pays it; each timed loop starts
        from a fresh init_state of its own, outside the timed units."""
        raise NotImplementedError

    def run(self, seconds: float) -> Phase:
        raise NotImplementedError

    def checks(self, phase: Phase) -> list:
        """[(name, ok, detail)] run after timing."""
        return [("ppl finite", math.isfinite(phase.ppl), f"{phase.ppl!r}")]


class TrainSmallVocab(Workload):
    name = "train-small-vocab"
    why = ("kernel-ordering set-up (V=202, K=1 pow): per-call overhead in the "
           "training loop, data batching, dev eval and checkpoint writes dominate")

    def setup(self):
        self.vocab, self.split = _corpus(self.sizes, self.seed)
        self.config = _config(SMALL_KINDS, self.seed, rho=0.0)
        training.init_state(self.config, self.vocab.V)
        self.out_dir = os.path.join(self.work_dir, "train")
        self.train_tokens = n_tokens(self.split.train)

    def _episode(self):
        """Train ``epochs`` epochs from a fresh state, one train() call per
        epoch, writing metrics.csv and checkpoints. Returns (epoch seconds,
        metric rows)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        state = training.init_state(self.config, self.vocab.V)
        seconds, rows = [], []
        for epoch in range(1, self.sizes.epochs + 1):
            t0 = time.perf_counter()
            _, metrics = training.train(self.config, self.split, self.vocab.V,
                                        out_dir=self.out_dir, state=state,
                                        max_epochs=epoch)
            seconds.append(time.perf_counter() - t0)
            rows.extend(metrics)
        return seconds, rows

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        epoch_s, episodes, attempted, failed = [], [], 0, 0
        while not episodes or time.perf_counter() < deadline:
            attempted += self.sizes.epochs
            try:
                secs, rows = self._episode()
            except Exception:
                traceback.print_exc()
                failed += self.sizes.epochs
                break
            epoch_s.extend(secs)
            episodes.append(rows)
        rows = episodes[0] if episodes else []
        ppl = rows[-1]["dev_ppl"] if rows else math.nan
        train_loss = (sum(r["train_loss"] for r in rows) / len(rows)) if rows else math.nan
        self.episodes = episodes
        phase = Phase(unit="epoch", seconds=epoch_s,
                      tokens=[self.train_tokens] * len(epoch_s),
                      ppl=ppl, train_loss=train_loss, attempted=attempted,
                      failed=failed)
        phase.extra = {"epoch_s": (median(epoch_s), "s", len(epoch_s)),
                       "train_tokens_per_s": (phase.tokens_per_s, "tok/s", len(epoch_s)),
                       "dev_ppl": (ppl, "ppl", 1),
                       "train_loss": (train_loss, "nats", len(rows))}
        return phase

    def checks(self, phase):
        out = super().checks(phase)
        out.append(("train_loss finite", math.isfinite(phase.train_loss),
                    f"{phase.train_loss!r}"))
        out.append(("episodes identical",
                    all(e == self.episodes[0] for e in self.episodes),
                    f"{len(self.episodes)} episodes"))
        with open(os.path.join(self.out_dir, "metrics.csv"), encoding="utf-8") as f:
            n_rows = len(list(csv.reader(f))) - 1
        out.append(("metrics.csv one row per epoch", n_rows == self.sizes.epochs,
                    f"{n_rows} rows for {self.sizes.epochs} epochs"))
        best = training.load_checkpoint(os.path.join(self.out_dir, "best.ckpt"))
        again = eval_mod.perplexity(best, self.split.dev)
        out.append(("best.ckpt reproduces best_dev_ppl",
                    again == best.best_dev_ppl,
                    f"{again!r} vs {best.best_dev_ppl!r}"))
        return out


class TrainLargeVocabMix(Workload):
    name = "train-large-vocab-mix"
    why = ("V=7975, K=4 lin+pow+ssg+hpb training steps: the output layer and "
           "all kernel branches dominate; data and encoder do little")

    def setup(self):
        self.vocab, self.split = _corpus(self.sizes, self.seed)
        self.config = _config(MIX_KINDS, self.seed, rho=0.1)
        training.init_state(self.config, self.vocab.V)

    def run(self, seconds):
        """The loop of training.train_steps, timed per step. train_steps
        itself discards the losses, which this workload checks."""
        cfg = self.config
        state = training.init_state(cfg, self.vocab.V)
        batches = data.batch_windows(self.split.train, cfg.n, cfg.batch_size,
                                     cfg.seed, epoch=state.epoch)
        deadline = time.perf_counter() + seconds
        step_s, tokens, losses, ces = [], [], [], []
        attempted = failed = 0
        while len(step_s) < self.sizes.loss_steps or time.perf_counter() < deadline:
            attempted += 1
            t0 = time.perf_counter()
            try:
                batch = next(batches, None)
                if batch is None:
                    state.epoch += 1
                    state.step_in_epoch = 0
                    batches = data.batch_windows(self.split.train, cfg.n,
                                                 cfg.batch_size, cfg.seed,
                                                 epoch=state.epoch)
                    batch = next(batches)
                loss, reg = training.train_step(state, *batch)
            except Exception:
                traceback.print_exc()
                failed += 1
                break
            step_s.append(time.perf_counter() - t0)
            tokens.append(len(batch[1]))
            losses.append(loss)
            ces.append(loss - reg)
        head = self.sizes.loss_steps
        train_loss = sum(losses[:head]) / head if len(losses) >= head else math.nan
        ppl = math.exp(sum(ces[:head]) / head) if len(ces) >= head else math.nan
        ms = [s * 1e3 for s in step_s]
        phase = Phase(unit="step", seconds=step_s, tokens=tokens, ppl=ppl,
                      train_loss=train_loss, attempted=attempted, failed=failed)
        phase.extra = {"step_ms_p50": (median(ms), "ms", len(ms)),
                       "step_ms_p90": (percentile(ms, 90), "ms", len(ms)),
                       "train_tokens_per_s": (phase.tokens_per_s, "tok/s", len(ms)),
                       "train_loss": (train_loss, "nats", head),
                       "train_ppl": (ppl, "ppl", head)}
        return phase

    def checks(self, phase):
        out = super().checks(phase)
        out.append(("train_loss finite", math.isfinite(phase.train_loss),
                    f"{phase.train_loss!r}"))
        return out


class EvalLargeVocabMix(Workload):
    name = "eval-large-vocab-mix"
    why = ("the ksoftmax eval path on the V=7975 K=4 model: forward only at "
           "B=512, K x B x V arrays dominate time and memory")

    def setup(self):
        self.vocab, self.split = _corpus(self.sizes, self.seed)
        config = _config(MIX_KINDS, self.seed, rho=0.1)
        state = training.init_state(config, self.vocab.V)
        self.checkpoint = os.path.join(self.work_dir, "eval.ckpt")
        training.save_checkpoint(state, self.checkpoint)
        self.chunks = self._chunks(self.split.test, self.sizes.chunk_tokens)

    @staticmethod
    def _chunks(sentences, target):
        """Consecutive whole-sentence pieces of at least ``target`` tokens;
        a short tail joins the last piece."""
        chunks, cur, size = [], [], 0
        for sent in sentences:
            cur.append(sent)
            size += len(sent)
            if size >= target:
                chunks.append(cur)
                cur, size = [], 0
        if cur:
            if chunks:
                chunks[-1].extend(cur)
            else:
                chunks.append(cur)
        return chunks

    def run(self, seconds):
        """Cycles of load_checkpoint + one eval.perplexity call per test chunk,
        until the time is up and at least one whole cycle is done. ppl is
        the token-weighted test perplexity of the first cycle."""
        deadline = time.perf_counter() + seconds
        chunk_s, tokens, cycles = [], [], []
        attempted = failed = 0
        load_ms = []
        while not cycles or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            state = training.load_checkpoint(self.checkpoint)
            load_ms.append((time.perf_counter() - t0) * 1e3)
            cycle = []
            for chunk in self.chunks:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    ppl = eval_mod.perplexity(state, chunk)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    break
                chunk_s.append(time.perf_counter() - t0)
                tokens.append(n_tokens(chunk))
                cycle.append(ppl)
                if time.perf_counter() >= deadline and cycles:
                    break
            if failed:
                break
            cycles.append(cycle)
        first = cycles[0] if cycles else []
        self.cycles = cycles
        if len(first) == len(self.chunks):
            nll = sum(n_tokens(c) * math.log(p) for c, p in zip(self.chunks, first))
            ppl = math.exp(nll / n_tokens(self.split.test))
        else:
            ppl = math.nan
        phase = Phase(unit="chunk", seconds=chunk_s, tokens=tokens, ppl=ppl,
                      train_loss=None, attempted=attempted, failed=failed)
        phase.extra = {"eval_tokens_per_s": (phase.tokens_per_s, "tok/s", len(chunk_s)),
                       "test_ppl": (ppl, "ppl", 1),
                       "load_checkpoint_ms": (median(load_ms), "ms", len(load_ms))}
        return phase

    def checks(self, phase):
        out = super().checks(phase)
        first = self.cycles[0] if self.cycles else []
        same = all(c == first[:len(c)] for c in self.cycles)
        out.append(("eval cycles identical", same, f"{len(self.cycles)} cycles"))
        return out


WORKLOADS = {w.name: w for w in (TrainSmallVocab, TrainLargeVocabMix,
                                  EvalLargeVocabMix)}
