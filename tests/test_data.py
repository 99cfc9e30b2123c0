import collections

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
