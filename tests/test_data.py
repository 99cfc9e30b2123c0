import collections
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksoftmax import data
from ksoftmax.data import BOS_ID, UNK_ID
from ksoftmax.errors import EmptyCorpus


class TestVocabulary:
    def test_minimal_corpus_ids(self):
        vocab = data.build_vocab(["a a b"], max_size=10)
        assert vocab.token_to_id == {"<bos>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_reserved_ids(self):
        assert BOS_ID == 0
        assert UNK_ID == 1

    def test_frequency_then_lexicographic_order(self):
        vocab = data.build_vocab(["c b b a a"], max_size=10)
        # a and b tie with count 2 -> lexicographic; c has count 1
        assert vocab.id_to_token[2:] == ["a", "b", "c"]

    def test_max_size_truncates(self):
        vocab = data.build_vocab(["e d c b a"], max_size=4)
        assert vocab.V == 4
        assert vocab.id_to_token == ["<bos>", "<unk>", "a", "b"]

    def test_min_count_filters(self):
        vocab = data.build_vocab(["a a b"], max_size=10, min_count=2)
        assert "b" not in vocab.token_to_id
        assert vocab.encode_token("b") == UNK_ID

    def test_unknown_token_maps_to_unk(self):
        vocab = data.build_vocab(["a"], max_size=10)
        assert vocab.encode_token("zzz") == UNK_ID

    def test_lowercasing(self):
        vocab = data.build_vocab(["Foo FOO foo"], max_size=10)
        assert vocab.encode_token("foo") == 2

    def test_save_load_round_trip(self, tmp_path):
        vocab = data.build_vocab(["the quick brown fox the"], max_size=10)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = data.Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        # file contains only the real tokens, one per line
        lines = path.read_text().splitlines()
        assert lines == vocab.id_to_token[2:]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=3),
                    min_size=1, max_size=30))
    def test_encode_decode_round_trip(self, tokens):
        vocab = data.build_vocab([" ".join(tokens)], max_size=1000)
        for tok in tokens:
            assert vocab.decode(vocab.encode_token(tok)) == tok


class TestPrepareCorpus:
    def test_split_sizes(self):
        lines = [f"tok{i} tok{i+1}" for i in range(100)]
        _, split = data.prepare_corpus(lines, max_size=1000, seed=0)
        assert len(split.train) == 80
        assert len(split.dev) == 10
        assert len(split.test) == 10

    def test_vocab_built_on_train_only(self):
        # token appearing in exactly one line lands in dev/test for some seed
        lines = ["common word"] * 20 + ["rareword alone"]
        for seed in range(50):
            vocab, split = data.prepare_corpus(lines, max_size=100, seed=seed)
            if "rareword" not in vocab.token_to_id:
                encoded = split.dev + split.test
                assert any(UNK_ID in s for s in encoded)
                return
        pytest.fail("rare line never left the train split")

    def test_deterministic(self):
        lines = data.generate_english(500, seed=3)
        v1, s1 = data.prepare_corpus(lines, max_size=100, seed=7)
        v2, s2 = data.prepare_corpus(lines, max_size=100, seed=7)
        assert v1.id_to_token == v2.id_to_token
        assert s1.train == s2.train and s1.dev == s2.dev and s1.test == s2.test

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            data.prepare_corpus(["", "   "], max_size=10)

    @pytest.mark.parametrize("kwargs", [
        dict(max_size=1), dict(max_size=2),
        dict(fractions=(1.5, -0.25, -0.25)), dict(fractions=(0.5, 0.5)),
        dict(fractions=(0.5, 0.5, 0.5)), dict(fractions=(0.25,) * 4),
    ], ids=["size-1", "size-2", "negative", "two", "sum-1.5", "four"])
    def test_rejects_bad_split_parameters(self, kwargs):
        lines = [f"tok{i} tok{i+1}" for i in range(50)]
        with pytest.raises(ValueError):
            data.prepare_corpus(lines, **{"max_size": 100, **kwargs})


class TestWindows:
    def test_first_window_is_all_bos(self):
        windows, targets = data.make_examples([[5, 6, 7]], n=2)
        assert windows[0].tolist() == [BOS_ID, BOS_ID]
        assert targets[0] == 5
        assert windows[1].tolist() == [BOS_ID, 5]
        assert windows[2].tolist() == [5, 6]

    def test_every_token_is_a_target_once(self):
        sentences = [[2, 3], [4], [5, 6, 7]]
        _, targets = data.make_examples(sentences, n=3)
        assert sorted(targets.tolist()) == [2, 3, 4, 5, 6, 7]

    def test_epoch_covers_every_token_exactly_once(self):
        sentences = [[2, 3, 4], [5, 6], [7, 8, 9, 10]]
        seen = collections.Counter()
        for windows, targets in data.batch_windows(sentences, n=2,
                                                   batch_size=4, seed=0):
            assert windows.shape[1] == 2
            seen.update(targets.tolist())
        assert sum(seen.values()) == sum(len(s) for s in sentences)
        assert all(v == 1 for v in seen.values())

    def test_shuffle_is_pure_function_of_seed_and_epoch(self):
        sentences = [[2, 3, 4, 5, 6, 7, 8, 9]]
        grab = lambda epoch: [t.tolist() for _, t in data.batch_windows(
            sentences, n=2, batch_size=3, seed=1, epoch=epoch)]
        assert grab(0) == grab(0)
        assert grab(0) != grab(1)

    def test_start_batch_resumes_mid_epoch(self):
        sentences = [[2, 3, 4, 5, 6, 7, 8, 9]]
        full = list(data.batch_windows(sentences, n=2, batch_size=3, seed=1))
        tail = list(data.batch_windows(sentences, n=2, batch_size=3, seed=1,
                                       start_batch=1))
        assert len(tail) == len(full) - 1
        for (w1, t1), (w2, t2) in zip(full[1:], tail):
            assert np.array_equal(w1, w2) and np.array_equal(t1, t2)

    def test_num_batches(self):
        assert data.num_batches([[1] * 10], batch_size=4) == 3
        assert data.num_batches([[1] * 8], batch_size=4) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(2, 9), min_size=1, max_size=6),
                    min_size=1, max_size=5),
           st.integers(1, 4), st.integers(1, 5))
    def test_batches_partition_examples(self, sentences, n, batch_size):
        total = sum(len(s) for s in sentences)
        batches = list(data.batch_windows(sentences, n=n,
                                          batch_size=batch_size, seed=0))
        assert sum(len(t) for _, t in batches) == total
        assert len(batches) == data.num_batches(sentences, batch_size)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(2, 9), max_size=6), max_size=5),
           st.integers(1, 4), st.integers(1, 5), st.integers(0, 3), st.integers(0, 9))
    def test_batches_are_make_examples_pairs_in_shuffle_order(self, sentences, n,
                                                              batch_size, epoch,
                                                              start_batch):
        # batch_windows gathers each batch from the padded ids; it must
        # give make_examples' arrays in the epoch's order, from any batch
        windows, targets = data.make_examples(sentences, n)
        order = np.random.default_rng([7, epoch]).permutation(len(targets))
        starts = range(start_batch * batch_size, len(targets), batch_size)
        batches = list(data.batch_windows(sentences, n, batch_size, seed=7, epoch=epoch,
                                          start_batch=start_batch))
        assert len(batches) == len(starts)
        for lo, (got_w, got_t) in zip(starts, batches):
            sel = order[lo:lo + batch_size]
            assert got_w.dtype == windows.dtype and got_t.dtype == targets.dtype
            assert np.array_equal(got_w, windows[sel]) and got_w.shape == (len(sel), n)
            assert np.array_equal(got_t, targets[sel])


class TestExampleArrays:
    """make_examples against arrays written out by hand."""

    @staticmethod
    def check(sentences, n, windows, targets):
        got_w, got_t = data.make_examples(sentences, n)
        assert got_w.dtype == got_t.dtype == np.int64
        assert got_w.shape == (len(targets), n) and got_t.shape == (len(targets),)
        assert got_w.tolist() == windows and got_t.tolist() == targets

    def test_empty_sentences_mixed_in(self):
        self.check([[], [4, 5], [], [], [6], []], 2,
                   [[BOS_ID, BOS_ID], [BOS_ID, 4], [BOS_ID, BOS_ID]], [4, 5, 6])

    def test_window_longer_than_a_sentence(self):
        self.check([[7, 8], [9]], 4,
                   [[BOS_ID] * 4, [BOS_ID] * 3 + [7], [BOS_ID] * 4], [7, 8, 9])

    @pytest.mark.parametrize("sentences", [[], [[]], [[], []]])
    def test_no_targets(self, sentences):
        self.check(sentences, 3, [], [])


class TestGenerators:
    @pytest.mark.parametrize("n", [3, 8, 30])
    @pytest.mark.parametrize("kind", ["zipf", "random-weights"])
    def test_hoisted_draw_is_numpys_choice(self, n, kind):
        # the generators draw through _categorical; a change in numpy's
        # choice algorithm would change every bundled corpus
        if kind == "zipf":
            p = data._zipf_probs(n, 1.1)
        else:
            w = np.random.default_rng(n).random(n)
            p = w / w.sum()
        draw = data._categorical(np.random.default_rng(7), p)
        ref = np.random.default_rng(7)
        assert ([draw() for _ in range(2000)]
                == [int(ref.choice(n, p=p)) for _ in range(2000)])

    @pytest.mark.parametrize("make, digest", [
        (lambda: data.generate_zipf(10000, 20000, seed=0),
         "3fe3241a677cd7f9f80e05dd6ce8f9d10a820877"),
        (lambda: data.generate_english(20000, seed=0),
         "1d07366b3be9b4f0753ab581af02bc97178a3711"),
    ], ids=["zipf", "english"])
    def test_corpora_are_pinned(self, make, digest):
        # sha1 of the lines joined by newlines, as numpy's rng.choice drew them
        assert hashlib.sha1("\n".join(make()).encode()).hexdigest() == digest

    def test_zipf_deterministic(self):
        a = data.generate_zipf(50, 2000, seed=4)
        b = data.generate_zipf(50, 2000, seed=4)
        assert a == b
        assert a != data.generate_zipf(50, 2000, seed=5)

    def test_zipf_token_budget_and_inventory(self):
        lines = data.generate_zipf(50, 2000, seed=0)
        tokens = [t for l in lines for t in l.split()]
        assert len(tokens) >= 2000
        assert set(tokens) <= {f"w{i:03d}" for i in range(50)}

    def test_zipf_is_head_heavy(self):
        lines = data.generate_zipf(100, 20000, seed=0)
        counts = collections.Counter(t for l in lines for t in l.split())
        top10 = sum(c for _, c in counts.most_common(10))
        assert top10 > 0.3 * sum(counts.values())

    def test_english_deterministic_and_sentence_like(self):
        a = data.generate_english(1000, seed=2)
        assert a == data.generate_english(1000, seed=2)
        assert a != data.generate_english(1000, seed=3)
        tokens = [t for l in a for t in l.split()]
        assert len(tokens) >= 1000
        assert all(l.strip() for l in a)


# ---------------------------------------------------------------------------
# The corpus set-up as it was written first, one token at a time: the
# references the faster forms must match line for line and id for id
# ---------------------------------------------------------------------------

def reference_zipf(vocab_size, n_tokens, s=1.1, seed=0, copy_prob=0.5):
    """generate_zipf drawing each token as it goes: a copy test, then a
    draw through _categorical unless it copies."""
    rng = np.random.default_rng(seed)
    draw = data._categorical(rng, data._zipf_probs(vocab_size, s))
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


def reference_prepare(lines, max_size, min_count=1, fractions=(0.8, 0.1, 0.1),
                      seed=0, lowercase=True):
    """prepare_corpus tokenizing a line each time it reads it: to drop
    empty lines, to count, and to encode."""
    lines = [l for l in lines if data.tokenize(l, lowercase)]
    order = np.random.default_rng(seed).permutation(len(lines))
    n_train = int(round(fractions[0] * len(lines)))
    n_dev = int(round(fractions[1] * len(lines)))
    parts = (sorted(order[:n_train]), sorted(order[n_train:n_train + n_dev]),
             sorted(order[n_train + n_dev:]))
    counts = collections.Counter()
    for i in parts[0]:
        counts.update(data.tokenize(lines[i], lowercase))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = data.Vocabulary([data.BOS_TOKEN, data.UNK_TOKEN]
                            + [t for t, c in ranked if c >= min_count][: max_size - 2])
    return vocab, [[[vocab.encode_token(t) for t in data.tokenize(lines[i], lowercase)]
                    for i in ids] for ids in parts]


class TestAgainstReference:
    @pytest.mark.parametrize("vocab_size, n_tokens, s, seed, copy_prob", [
        *[(50, n, 1.1, 0, 0.5) for n in range(5)],
        *[(200, 100_000, 1.1, seed, 0.5) for seed in (0, 11)],
        (10_000, 100_000, 1.1, 12, 0.5),
        *[(1, n, 1.1, 13, 0.5) for n in (1, 30)],
        *[(40, 2000, 1.1, seed, p) for seed in (14, 15) for p in (0.0, 1.0)],
        *[(40, 2000, s, 16, 0.5) for s in (-0.5, -3.0, 0.0)],
        *[(7, 500, 2.0, seed, 0.9) for seed in (17, 18, 19)],
    ])
    def test_generate_zipf_is_the_per_token_draw(self, vocab_size, n_tokens, s, seed,
                                                 copy_prob):
        args = (vocab_size, n_tokens, s, seed, copy_prob)
        assert data.generate_zipf(*args) == reference_zipf(*args)

    # every token of the first block is counted alike, so a max_size that
    # keeps some of them cuts through a tie; mixed case, empty lines
    TIED = ["d c b a"] * 6 + ["A B c D", "", "  ", "b a e", "\t", "E"]
    MIXED = TIED + reference_zipf(30, 2000, seed=2)

    @pytest.mark.parametrize("lines", [TIED, MIXED], ids=["tied", "mixed"])
    @pytest.mark.parametrize("kwargs", [
        {}, {"lowercase": False}, {"min_count": 2}, {"max_size": 5},
        {"max_size": 5, "lowercase": False}, {"max_size": 4, "min_count": 2},
        {"fractions": (0.5, 0.25, 0.25), "seed": 4}, {"fractions": (1.0, 0.0, 0.0)},
    ], ids=repr)
    def test_prepare_corpus_tokenizes_as_the_reference(self, lines, kwargs):
        kwargs = {"max_size": 100, **kwargs}
        vocab, split = data.prepare_corpus(lines, **kwargs)
        ref_vocab, ref_parts = reference_prepare(lines, **kwargs)
        assert vocab.id_to_token == ref_vocab.id_to_token
        assert [split.train, split.dev, split.test] == ref_parts
