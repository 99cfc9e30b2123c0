"""Evaluation utilities: perplexity, kernel curve emission, and the
embedding-space disambiguation probe."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import data as data_mod
from . import encoder as encoder_mod
from . import kernels
from . import output_layer
from .errors import KsoftmaxError, TokenOutOfRange
from .kernels import KernelSpec


EVAL_BATCH = 512


def mean_nll_and_pi(state, sentences):
    """(mean NLL, per-component mean pi, pi variance) of the
    training.TrainState ``state`` over every target position of
    ``sentences``; the variance is output_layer._pi_variance in the
    mixture's mode over all those positions, the term rho scales in loss.
    The batches are scored in ``state.ws``, the training step's workspace,
    on its lanes; the pass only scores, so it keeps nothing for backward
    and, of the log-softmax, only the values at the targets. Its lanes'
    scratch, grown to the logits of the tallest row chunk, is unmapped as
    it returns or raises."""
    config = state.mixture
    windows, targets = data_mod.make_examples(sentences, state.config.n)
    total_nll = 0.0
    pi_sum = np.zeros(config.K)
    pis = []
    count = len(targets)
    if count == 0:
        raise KsoftmaxError("empty split: no target positions to score")
    try:
        for lo in range(0, count, EVAL_BATCH):
            rows = slice(lo, lo + EVAL_BATCH)
            H, _ = encoder_mod.encode(state.enc, windows[rows])
            cache = output_layer._forward(config, state.out, H, targets[rows], state.ws)
            total_nll -= float(cache.log_posterior.sum())
            pi_sum += cache.pi.sum(axis=0)
            pis.append(cache.pi)
            del cache  # the next batch overwrites the arrays it views
    finally:
        state.ws.release_scratch()
    pi_var = output_layer._pi_variance(np.concatenate(pis), config.reg_across_data)
    return total_nll / count, pi_sum / count, pi_var


def perplexity(state, sentences) -> float:
    """exp of the mean negative log posterior of the training.TrainState
    ``state`` over all target positions."""
    return ppl_of_nll(mean_nll_and_pi(state, sentences)[0])


def ppl_of_nll(nll: float) -> float:
    """exp(nll), or inf where that overflows a float."""
    try:
        return math.exp(nll)
    except OverflowError:
        return math.inf


CURVE_HEADER = "x,score,dscore_dx"


def emit_kernel_curves(specs: Sequence[KernelSpec], x_max: float, steps: int,
                       out_dir) -> list:
    """One CSV per kernel tabulating the 1-D profile and its derivative:
    ``curve_<kind>.csv`` for the first spec of a kind, and
    ``curve_<kind>_<n>.csv`` for its n-th (n >= 2).

    Distance-based kernels are profiled against the squared distance
    x = ||W_v - h||^2; lin and pol against the dot product (same column
    name, noted in the README). Every profile is computed before
    ``out_dir`` is made: one that fails, on a bad value or a MemoryError,
    leaves no file.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not math.isfinite(x_max):
        raise ValueError(f"x_max must be finite, got {x_max}")
    for spec in specs:
        if x_max < 0 and kernels.KERNELS[spec.kind].stat == "x":
            raise ValueError(f"{spec.kind}: x is a squared distance, so x_max "
                             f"must be >= 0, got {x_max}")
    xs = np.linspace(0.0, x_max, steps)
    profiles = [kernels.radial_profile(spec, xs) for spec in specs]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, (spec, (s, ds)) in enumerate(zip(specs, profiles)):
        n = sum(other.kind == spec.kind for other in specs[:i])  # earlier of its kind
        path = os.path.join(out_dir, f"curve_{spec.kind}{f'_{n + 1}' if n else ''}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(CURVE_HEADER + "\n")
            for x, sv, dv in zip(xs, s, ds):
                f.write(f"{x:.12g},{sv:.12g},{dv:.12g}\n")
        paths.append(path)
    return paths


@dataclass
class ContextReport:
    tokens: list                 # context window as tokens
    pi: np.ndarray               # K
    neighbor_logits: np.ndarray  # K x m, per-component logits of neighbors
    neighbor_posterior: np.ndarray  # m
    top_predictions: list        # [(token, prob)] over full vocabulary


@dataclass
class QueryReport:
    query: str
    neighbors: list              # [(token, inner product)], descending
    contexts: list               # ContextReport per supplied context


@dataclass
class ProbeReport:
    queries: list

    def to_text(self) -> str:
        lines = []
        for q in self.queries:
            lines.append(f"query: {q.query}")
            lines.append("  neighbors (inner product):")
            for tok, s in q.neighbors:
                lines.append(f"    {tok}\t{s:.6g}")
            for ctx in q.contexts:
                lines.append(f"  context: {' '.join(ctx.tokens)}")
                lines.append("    pi: " + " ".join(f"{p:.4g}" for p in ctx.pi))
                for k in range(ctx.neighbor_logits.shape[0]):
                    row = " ".join(f"{v:.6g}" for v in ctx.neighbor_logits[k])
                    lines.append(f"    component {k} logits: {row}")
                lines.append("    neighbor posterior: "
                             + " ".join(f"{p:.6g}" for p in ctx.neighbor_posterior))
                lines.append("    top predictions: "
                             + " ".join(f"{t}:{p:.4g}" for t, p in ctx.top_predictions))
        return "\n".join(lines) + "\n"

    def to_tsv(self) -> str:
        rows = []
        for q in self.queries:
            for rank, (tok, s) in enumerate(q.neighbors):
                rows.append(f"neighbor\t{q.query}\t{rank}\t{tok}\t{s:.10g}")
            for ci, ctx in enumerate(q.contexts):
                for m, p in enumerate(ctx.neighbor_posterior):
                    rows.append(
                        f"posterior\t{q.query}\t{ci}\t{q.neighbors[m][0]}\t{p:.10g}")
        return "\n".join(rows) + "\n"


def disambiguation_probe(state, vocab: "data_mod.Vocabulary",
                         query_tokens: Sequence[str],
                         contexts: Sequence[Sequence[str]] = (),
                         top_m: int = 5) -> ProbeReport:
    """Inner-product neighbors of each query word plus, for each supplied
    context, the per-component logits and posterior over the neighbor set."""
    if vocab.V != state.mixture.V:
        raise KsoftmaxError(
            f"vocabulary of {vocab.V} tokens for a model of V={state.mixture.V}")
    if top_m < 1:
        raise ValueError(f"top_m must be >= 1, got {top_m}")
    config, n = state.mixture, state.config.n
    # one B=1 call per context: a batch of contexts could get other bits
    scored = []
    for ctx in contexts:
        toks = list(ctx)
        window = ([data_mod.BOS_ID] * n + [vocab.encode_token(t) for t in toks])[-n:]
        H, _ = encoder_mod.encode(state.enc, np.asarray([window]))
        probs, cache = output_layer.posterior(config, state.out, H)
        post = probs[0]
        # the same call _forward made, so the same bits
        logits = np.stack([output_layer.component_logits(
            config, state.out, cache.h_tilde[k], k)[0][0] for k in range(config.K)])
        top = np.argsort(-post, kind="stable")[:top_m]
        scored.append((toks, post, cache.pi[0], logits,
                       [(vocab.decode(int(v)), float(post[v])) for v in top]))

    W = state.out.W
    queries = []
    for qt in query_tokens:
        if qt not in vocab.token_to_id:
            raise TokenOutOfRange(f"token {qt!r} not in vocabulary")
        qid = vocab.token_to_id[qt]
        sims = W[:, qid] @ W
        order = np.argsort(-sims, kind="stable")[:top_m]
        neighbors = [(vocab.decode(int(v)), float(sims[v])) for v in order]
        ctx_reports = [ContextReport(
            tokens=toks,
            pi=pi,
            neighbor_logits=logits[:, order],
            neighbor_posterior=post[order],
            top_predictions=top,
        ) for toks, post, pi, logits, top in scored]
        queries.append(QueryReport(query=qt, neighbors=neighbors,
                                   contexts=ctx_reports))
    return ProbeReport(queries=queries)
