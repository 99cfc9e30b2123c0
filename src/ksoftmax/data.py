"""Corpus ingestion, vocabulary, deterministic splits and window batching.

Corpus files are UTF-8, whitespace-pretokenized, one sentence per line.
Two seeded corpus generators are bundled: a Zipf-unigram corpus with a
deterministic successor rule (so that context actually predicts), and an
English-like corpus drawn from a small template grammar, standing in for a
public-domain text at desk scale.
"""

from __future__ import annotations

import array
import itertools
import math
import sys
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

    def save(self, path):
        # one token per line, line number = id - 2 (reserved ids implicit)
        save_lines(self.id_to_token[2:], path)

    @staticmethod
    def load(path) -> "Vocabulary":
        # blank lines are skipped
        return Vocabulary([BOS_TOKEN, UNK_TOKEN] + list(filter(None, load_lines(path))))


def build_vocab(lines: Iterable[str], max_size: int, min_count: int = 1,
                lowercase: bool = True) -> Vocabulary:
    """Most frequent tokens kept up to max_size - 2; ties break
    lexicographically."""
    return _ranked_vocab((tokenize(line, lowercase) for line in lines),
                         max_size, min_count)


def _ranked_vocab(sentences: Iterable[list], max_size: int,
                  min_count: int) -> Vocabulary:
    """build_vocab over sentences already tokenized."""
    if max_size < 3:
        raise ValueError(f"vocabulary size {max_size} leaves no room beside <bos>, <unk>")
    counts = Counter(itertools.chain.from_iterable(sentences))
    if not counts:
        raise EmptyCorpus("no tokens found")
    # by token, then stably by count: most frequent first, ties in token
    # order, with no tuple per type
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    kept = [t for t in ranked if counts[t] >= min_count][: max_size - 2]
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
    # tokenized once and interned, so that the sentences hold one string
    # per type rather than one per token
    sentences = [toks for toks in (list(map(sys.intern, tokenize(l, lowercase)))
                                   for l in lines) if toks]
    if not sentences:
        raise EmptyCorpus("no non-empty lines")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sentences))
    n_train = int(round(fractions[0] * len(sentences)))
    n_dev = int(round(fractions[1] * len(sentences)))
    train_idx, dev_idx, test_idx = (
        np.sort(part).tolist() for part in np.split(order, [n_train, n_train + n_dev]))
    vocab = _ranked_vocab((sentences[i] for i in train_idx), max_size, min_count)
    get, unk = vocab.token_to_id.get, itertools.repeat(UNK_ID)
    for toks in sentences:  # encoded in place: the splits hold these lists
        toks[:] = map(get, toks, unk)
    pick = lambda ids: [sentences[i] for i in ids]
    return vocab, CorpusSplit(train=pick(train_idx), dev=pick(dev_idx),
                              test=pick(test_idx))


def _padded(sentences: Sequence[Sequence[int]], n: int) -> tuple:
    """(the ids of every sentence after n BOS ids, in one array; each
    target's position in it). A target's window is the n ids before it."""
    lengths = [len(s) for s in sentences]
    targets = np.fromiter(itertools.chain.from_iterable(sentences), np.int64, sum(lengths))
    at = np.arange(len(targets)) + n * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    padded = np.full(len(targets) + n * len(lengths), BOS_ID, dtype=np.int64)
    padded[at] = targets
    return padded, at


def make_examples(sentences: Sequence[Sequence[int]], n: int):
    """All (window, target) pairs: every token of every sentence is a target
    exactly once, contexts left-padded with BOS."""
    padded, at = _padded(sentences, n)
    return padded[at[:, None] + np.arange(-n, 0)], padded[at]


def batch_windows(sentences: Sequence[Sequence[int]], n: int, batch_size: int,
                  seed: int, epoch: int = 0,
                  start_batch: int = 0) -> Iterator[tuple]:
    """Stream of (B x n windows, B targets); shuffle order is a pure
    function of (seed, epoch). The batches are make_examples' pairs in
    that order, each gathered from the padded ids when it is due, so the
    epoch's N x n window array is never held."""
    padded, at = _padded(sentences, n)
    offsets = np.arange(-n, 0)
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(at))
    for lo in range(start_batch * batch_size, len(at), batch_size):
        sel = at[order[lo:lo + batch_size]]
        yield padded[sel[:, None] + offsets], padded[sel]


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
    """Zipf(s) probabilities of ranks 1..n. Raises ValueError when they are
    not all finite, as when a large negative s overflows the weights."""
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.arange(1, n + 1, dtype=np.float64) ** -s
        probs /= probs.sum()
    if not np.isfinite(probs).all():
        raise ValueError(f"zipf s={s} over {n} ranks gives non-finite probabilities")
    return probs


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF numpy's ``choice`` searches: one double u draws the index
    ``cdf.searchsorted(u, side="right")``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _categorical(rng: np.random.Generator, probs: np.ndarray):
    """A function that draws one index with probabilities ``probs``, as
    ``int(rng.choice(len(probs), p=probs))`` does: numpy's own algorithm
    (inverse CDF, one double per draw), with the CDF built once instead of
    on every call."""
    cdf = _cdf(probs)
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

    The stream is ``permutation(vocab_size)``, then per sentence one
    ``integers(5, 21)`` for its length and one ``random()`` double for each
    copy test (every token but the first) and each draw. The corpus is
    built in two phases: the first walks that stream and keeps each draw's
    double, the second turns all draws into types with one CDF search, as
    ``rng.choice`` would one by one, then follows the copies.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if n_tokens < 0:
        raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
    if not math.isfinite(s):
        raise ValueError(f"zipf s must be finite, got {s}")
    if not 0 <= copy_prob <= 1:
        raise ValueError(f"copy_prob must be in [0, 1], got {copy_prob}")
    rng = np.random.default_rng(seed)
    cdf = _cdf(_zipf_probs(vocab_size, s))
    successor = rng.permutation(vocab_size)
    # per token, its draw's double, or -1.0 where it copies
    doubles = array.array("d")
    lengths = []
    tokens_left = n_tokens
    while tokens_left > 0:
        length = min(int(rng.integers(5, 21)), tokens_left)
        lengths.append(length)
        tokens_left -= length
        # every token left takes at least one double, so a block of that
        # many reads no double past the sentence; a failed copy test leaves
        # its token for the next block
        drawing, need = True, length
        while need:
            block, need = rng.random(need).tolist(), 0
            for u in block:
                if drawing:
                    doubles.append(u)
                    drawing = False
                elif u < copy_prob:
                    doubles.append(-1.0)
                else:
                    drawing = True
                    need += 1
    doubles = np.frombuffer(doubles)
    tok = cdf.searchsorted(doubles, side="right")
    copied = np.append(doubles < 0.0, False)
    del doubles  # freed before the lines are built
    # a copy takes its predecessor's successor: resolve the copy runs one
    # position at a time, from the token before each run (a sentence's
    # first token never copies; the False appended ends the last run)
    at = np.flatnonzero(copied[1:] & ~copied[:-1]) + 1
    while at.size:
        tok[at] = successor[tok[at - 1]]
        at = at[copied[at + 1]] + 1
    # one name per type that occurs, shared by all its tokens
    names = [None] * vocab_size
    for t in np.flatnonzero(np.bincount(tok, minlength=vocab_size)).tolist():
        names[t] = f"w{t:03d}"
    return [" ".join(map(names.__getitem__, tok[end - n:end].tolist()))
            for n, end in zip(lengths, itertools.accumulate(lengths))]


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
    if n_tokens < 0:
        raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
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
