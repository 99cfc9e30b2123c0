"""The logit-range table of the kernel-ordering run, for rbf and wav.

    PYTHONPATH=src python tools/logit_range.py [kind ...]

Trains each kind (rbf and wav by default) with the set-up of
``tests/test_acceptance.py::test_kernel_ordering``: a 100,000-token Zipf
corpus of 200 types, V = 202, n = 3, d = 32, batch 64, Adam at 1e-3, at
most 20 epochs, seed 0, rho = 0. For the first 2,048 dev contexts it takes
the range r of the component's logits over the vocabulary (max - min),
at the initial state and at the best one. With logits of width r no
target gets more probability than e^r / (e^r + V - 1), so the geometric
mean over contexts of the inverse of that cap is a floor under the
perplexity the model can reach. Prints one markdown row per kind: r at
init and at best (p10 / p50 / p90), that floor at best, and the best dev
perplexity. Takes about 20 s per kind on 2 CPUs.
"""

from __future__ import annotations

import sys

import numpy as np

from ksoftmax import data, encoder, output_layer, training
from ksoftmax.kernels import KernelSpec

CONTEXTS = 2048


def logit_ranges(state, windows) -> np.ndarray:
    """max - min over V of the single component's logits, per window."""
    H, _ = encoder.encode(state.enc, windows)
    # with K = 1 the component scores the encoder's output itself
    logits, _ = output_layer.component_logits(state.mixture, state.out, H, 0)
    return logits.max(axis=1) - logits.min(axis=1)


def deciles(x) -> str:
    """p10 / p50 / p90 of ``x``."""
    return " / ".join(f"{q:.3f}" for q in np.percentile(x, [10, 50, 90]))


def main(kinds) -> int:
    vocab, split = data.prepare_corpus(data.generate_zipf(200, 100000, seed=0),
                                       max_size=202, seed=0)
    print("| kind | logit range r, init → best (p10 / p50 / p90) "
          "| ppl floor from r | dev ppl |")
    print("|---|---|---|---|")
    for kind in kinds:
        config = training.TrainConfig(components=(KernelSpec(kind),), n=3, d=32,
                                      batch_size=64, learning_rate=1e-3,
                                      max_epochs=20, seed=0, rho=0.0)
        windows = data.make_examples(split.dev, config.n)[0][:CONTEXTS]
        init = logit_ranges(training.init_state(config, vocab.V), windows)
        best, _ = training.train(config, split, vocab.V)
        r = logit_ranges(best, windows)
        # log(1 / cap) = log(e^r + V - 1) - r
        floor = np.exp(np.mean(np.logaddexp(r, np.log(vocab.V - 1)) - r))
        print(f"| {kind} | {deciles(init)} → {deciles(r)} | {floor:.1f} "
              f"| {best.best_dev_ppl:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["rbf", "wav"]))
