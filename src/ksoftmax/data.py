"""Corpus ingestion, vocabulary, deterministic splits and window batching.

Corpus files are UTF-8, whitespace-pretokenized, one sentence per line.
Two seeded corpus generators are bundled: a Zipf-unigram corpus with a
deterministic successor rule (so that context actually predicts), and an
English-like corpus drawn from a small template grammar, standing in for a
public-domain text at desk scale.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyCorpus, TokenOutOfRange

BOS_ID = 0
UNK_ID = 1
BOS_TOKEN = "<bos>"
UNK_TOKEN = "<unk>"


def tokenize(line: str, lowercase: bool = True) -> list:
    if lowercase:
        line = line.lower()
    return line.split()


@dataclass
class Vocabulary:
    """Frequency-ranked token<->id bijection with reserved BOS=0, UNK=1."""

    id_to_token: list

    def __post_init__(self):
        assert self.id_to_token[:2] == [BOS_TOKEN, UNK_TOKEN]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def V(self) -> int:
        return len(self.id_to_token)

    def encode_token(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def decode(self, idx: int) -> str:
        if not 0 <= idx < self.V:
            raise TokenOutOfRange(f"id {idx} outside [0, {self.V})")
        return self.id_to_token[idx]

    def encode_line(self, line: str, lowercase: bool = True) -> list:
        return [self.encode_token(t) for t in tokenize(line, lowercase)]

    def save(self, path):
        # one token per line, line number = id - 2 (reserved ids implicit)
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.id_to_token[2:]:
                f.write(tok + "\n")

    @staticmethod
    def load(path) -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            toks = [line.rstrip("\n") for line in f if line.rstrip("\n")]
        return Vocabulary([BOS_TOKEN, UNK_TOKEN] + toks)


def build_vocab(lines: Iterable[str], max_size: int, min_count: int = 1,
                lowercase: bool = True) -> Vocabulary:
    """Most frequent tokens kept up to max_size - 2; ties break
    lexicographically."""
    if max_size < 3:
        raise ValueError(f"vocabulary size {max_size} leaves no room beside <bos>, <unk>")
    counts = Counter()
    for line in lines:
        counts.update(tokenize(line, lowercase))
    if not counts:
        raise EmptyCorpus("no tokens found")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, c in ranked if c >= min_count][: max_size - 2]
    return Vocabulary([BOS_TOKEN, UNK_TOKEN] + kept)


@dataclass
class CorpusSplit:
    """Disjoint-by-line train/dev/test id sequences."""

    train: list  # list of list[int]
    dev: list
    test: list


def prepare_corpus(lines: Sequence[str], max_size: int, min_count: int = 1,
                   fractions=(0.8, 0.1, 0.1), seed: int = 0,
                   lowercase: bool = True):
    """(Vocabulary, CorpusSplit): split lines by seeded permutation, build
    the vocabulary on the train portion only, encode all three splits."""
    if (len(fractions) != 3 or min(fractions) < 0
            or not math.isclose(sum(fractions), 1.0)):
        raise ValueError(f"split fractions {fractions} must be 3 numbers >= 0, sum 1")
    lines = [l for l in lines if tokenize(l, lowercase)]
    if not lines:
        raise EmptyCorpus("no non-empty lines")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(lines))
    n_train = int(round(fractions[0] * len(lines)))
    n_dev = int(round(fractions[1] * len(lines)))
    train_idx = sorted(order[:n_train])
    dev_idx = sorted(order[n_train:n_train + n_dev])
    test_idx = sorted(order[n_train + n_dev:])
    vocab = build_vocab((lines[i] for i in train_idx), max_size, min_count,
                        lowercase)
    enc = lambda ids: [vocab.encode_line(lines[i], lowercase) for i in ids]
    return vocab, CorpusSplit(train=enc(train_idx), dev=enc(dev_idx),
                              test=enc(test_idx))


def make_examples(sentences: Sequence[Sequence[int]], n: int):
    """All (window, target) pairs: every token of every sentence is a target
    exactly once, contexts left-padded with BOS."""
    lengths = [len(s) for s in sentences]
    targets = np.fromiter(itertools.chain.from_iterable(sentences), np.int64, sum(lengths))
    # each sentence follows n BOS ids; a target's window is the n ids before it
    at = np.arange(len(targets)) + n * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    padded = np.full(len(targets) + n * len(lengths), BOS_ID, dtype=np.int64)
    padded[at] = targets
    return padded[at[:, None] + np.arange(-n, 0)], targets


def batch_windows(sentences: Sequence[Sequence[int]], n: int, batch_size: int,
                  seed: int, epoch: int = 0,
                  start_batch: int = 0) -> Iterator[tuple]:
    """Stream of (B x n windows, B targets); shuffle order is a pure
    function of (seed, epoch)."""
    windows, targets = make_examples(sentences, n)
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(targets))
    for lo in range(start_batch * batch_size, len(targets), batch_size):
        sel = order[lo:lo + batch_size]
        yield windows[sel], targets[sel]


def num_batches(sentences, batch_size: int) -> int:
    total = sum(len(s) for s in sentences)
    return (total + batch_size - 1) // batch_size


def load_lines(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


def save_lines(lines: Sequence[str], path):
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


# ---------------------------------------------------------------------------
# Bundled corpus generators
# ---------------------------------------------------------------------------

def _zipf_probs(n: int, s: float) -> np.ndarray:
    """Zipf(s) probabilities of ranks 1..n."""
    probs = np.arange(1, n + 1, dtype=np.float64) ** -s
    probs /= probs.sum()
    return probs


def _categorical(rng: np.random.Generator, probs: np.ndarray):
    """A function that draws one index with probabilities ``probs``, as
    ``int(rng.choice(len(probs), p=probs))`` does: numpy's own algorithm
    (inverse CDF, one double per draw), with the CDF built once instead of
    on every call."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return lambda: int(cdf.searchsorted(rng.random(), side="right"))


def generate_zipf(vocab_size: int, n_tokens: int, s: float = 1.1,
                  seed: int = 0, copy_prob: float = 0.5) -> list:
    """Zipf-distributed corpus with a deterministic successor rule.

    Each token is, with probability ``copy_prob``, a fixed function of its
    predecessor (a seeded permutation of the type inventory), otherwise an
    independent draw from a Zipf(s) distribution over ``vocab_size`` types.
    The successor rule is what gives an n-gram model something to learn;
    the unigram marginal stays heavy-tailed. Sentences are 5 to 20 tokens
    long.
    """
    rng = np.random.default_rng(seed)
    draw = _categorical(rng, _zipf_probs(vocab_size, s))
    successor = rng.permutation(vocab_size).tolist()
    lines = []
    tokens_left = n_tokens
    while tokens_left > 0:
        length = min(int(rng.integers(5, 21)), tokens_left)
        sent = []
        prev = None
        for _ in range(length):
            if prev is not None and rng.random() < copy_prob:
                tok = successor[prev]
            else:
                tok = draw()
            sent.append(tok)
            prev = tok
        lines.append(" ".join(f"w{t:03d}" for t in sent))
        tokens_left -= length
    return lines


_DETS = ["the", "a", "this", "that", "every", "some", "no", "each"]
_ADJS = ["old", "small", "young", "quiet", "bright", "dark", "heavy", "narrow",
         "broken", "golden", "distant", "gentle", "bitter", "pale", "weary",
         "hollow", "swift", "plain", "rough", "silent"]
_NOUNS = ["river", "house", "garden", "letter", "window", "soldier", "road",
          "mountain", "child", "winter", "village", "candle", "doctor",
          "horse", "stone", "forest", "morning", "ship", "market", "bridge",
          "shadow", "teacher", "island", "storm", "bell", "field", "lantern",
          "harbor", "meadow", "tower"]
_VERBS = ["crossed", "watched", "opened", "carried", "followed", "reached",
          "remembered", "left", "found", "built", "burned", "answered",
          "feared", "held", "painted", "gathered", "repaired", "guarded"]
_IVERBS = ["slept", "waited", "vanished", "trembled", "returned", "fell",
           "wandered", "listened", "rested", "arrived"]
_ADVS = ["slowly", "quietly", "again", "alone", "today", "nearby",
         "suddenly", "gladly"]
_PREPS = ["near", "beyond", "under", "behind", "beside", "toward", "across",
          "within"]


def generate_english(n_tokens: int, seed: int = 0) -> list:
    """English-like desk corpus from a small seeded template grammar.

    A stand-in for a bundled public-domain text: word choices are
    Zipf-weighted within their class and sentence structure is strongly
    predictive, so contextual models have real signal to pick up.
    """
    rng = np.random.default_rng(seed)
    # a word's Zipf weight depends only on its rank and its class's size
    draws = {len(words): _categorical(rng, _zipf_probs(len(words), 1.2))
             for words in (_DETS, _ADJS, _NOUNS, _VERBS, _IVERBS, _ADVS, _PREPS)}

    def zipf_pick(words):
        return words[draws[len(words)]()]

    def np_phrase():
        out = [zipf_pick(_DETS)]
        if rng.random() < 0.5:
            out.append(zipf_pick(_ADJS))
        out.append(zipf_pick(_NOUNS))
        return out

    def sentence():
        words = np_phrase()
        if rng.random() < 0.55:
            words.append(zipf_pick(_VERBS))
            words += np_phrase()
        else:
            words.append(zipf_pick(_IVERBS))
        if rng.random() < 0.4:
            words.append(zipf_pick(_PREPS))
            words += np_phrase()
        if rng.random() < 0.3:
            words.append(zipf_pick(_ADVS))
        if rng.random() < 0.35:
            words.append("and")
            words.append(zipf_pick(_IVERBS) if rng.random() < 0.5 else zipf_pick(_ADVS))
        return words

    lines = []
    total = 0
    while total < n_tokens:
        words = sentence()
        lines.append(" ".join(words))
        total += len(words)
    return lines
