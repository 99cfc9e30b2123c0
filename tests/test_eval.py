import copy
import math
import weakref

import numpy as np
import pytest

from ksoftmax import data, encoder, eval as eval_mod, kernels, output_layer, training
from ksoftmax.errors import KsoftmaxError, TargetOutOfRange
from ksoftmax.kernels import KernelSpec
from ksoftmax.training import TrainConfig, init_state


def make_state(V=10, **kw):
    base = dict(components=(KernelSpec("lin"),), n=2, d=4, d_e=4, seed=0)
    base.update(kw)
    return init_state(TrainConfig(**base), V)


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self):
        state = make_state(V=100)
        state.out.W[:] = 0.0
        sentences = [[2, 3, 4, 5], [6, 7]]
        assert eval_mod.perplexity(state, sentences) == pytest.approx(
            100.0, abs=1e-9)

    def test_perfect_model_gives_one(self):
        # rig the model so token 3 gets probability ~1 in every context:
        # constant context H = tanh(1) and a single huge output column
        state = make_state(V=6)
        state.enc.E[:] = 0.0
        state.enc.F[:] = 0.0
        state.enc.bias[:] = 1.0
        state.out.W[:] = 0.0
        state.out.W[:, 3] = 50.0
        ppl = eval_mod.perplexity(state, [[3, 3, 3]])
        assert ppl == pytest.approx(1.0, abs=1e-9)

    def test_matches_mean_nll(self):
        state = make_state(V=10, seed=5)
        sentences = [[2, 3, 4], [5, 6, 7, 8]]
        nll, pi_mean, _ = eval_mod.mean_nll_and_pi(state, sentences)
        assert eval_mod.perplexity(state, sentences) == pytest.approx(
            math.exp(nll), rel=1e-12)
        assert pi_mean.shape == (1,)
        assert pi_mean[0] == pytest.approx(1.0)

    def test_empty_split_rejected(self):
        state = make_state()
        with pytest.raises(KsoftmaxError, match="empty split"):
            eval_mod.perplexity(state, [])

    def test_target_outside_vocabulary_rejected(self):
        with pytest.raises(TargetOutOfRange):
            eval_mod.perplexity(make_state(V=10), [[2, 3, 15]])


    def test_batches_in_one_workspace_match_fresh_scoring(self, monkeypatch):
        # 19 positions in batches of 4: the short last batch reuses the
        # buffers of the full ones
        state = make_state(V=10, components=tuple(
            KernelSpec(k) for k in ("lin", "pow", "ssg", "hpb")), seed=6)
        sentences = [[2, 3, 4, 5, 6, 7, 8, 9, 2, 3]] + [[4, 5, 6, 7, 8, 9, 2, 3, 4]]
        monkeypatch.setattr(eval_mod, "EVAL_BATCH", 4)
        nll, pi_mean, _ = eval_mod.mean_nll_and_pi(state, sentences)
        windows, targets = data.make_examples(sentences, state.config.n)
        assert len(targets) % 4 == 3
        total, pi_sum = 0.0, np.zeros(4)
        for lo in range(0, len(targets), 4):
            H, _ = encoder.encode(state.enc, windows[lo:lo + 4])
            cache = output_layer._forward(state.mixture, state.out, H, targets[lo:lo + 4])
            total -= float(cache.log_posterior.sum())
            pi_sum += cache.pi.sum(axis=0)
        assert nll == total / len(targets)
        assert np.array_equal(pi_mean, pi_sum / len(targets))

    def test_scoring_in_the_states_dirty_workspace_changes_no_bits(self):
        # eval scores in state.ws; its stale contents, left at a larger
        # batch, reach neither the perplexity nor the next training step
        components = tuple(KernelSpec(k) for k in ("lin", "pow", "ssg", "hpb"))
        state = make_state(V=10, components=components, seed=7, rho=0.1)
        windows, targets = data.make_examples([[2, 3, 4, 5, 6, 7, 8, 9]] * 6,
                                              state.config.n)
        training.train_step(state, windows, targets)
        eval_mod.perplexity(state, [[2, 3, 4, 5, 6, 7, 8, 9]] * 8)
        copied = copy.deepcopy(state)
        assert state.ws._buffers and not copied.ws._buffers
        for buf in state.ws._buffers.values():
            buf.fill(np.nan)
        sentences = [[9, 8, 7, 6], [5, 4, 3, 2, 2]]
        assert eval_mod.perplexity(state, sentences) == eval_mod.perplexity(
            copied, sentences)
        batch = windows[:20], targets[:20]
        assert training.train_step(state, *batch) == training.train_step(copied, *batch)
        for name, arr in training.named_tensors(state):
            assert np.array_equal(arr, dict(training.named_tensors(copied))[name]), name
            assert np.array_equal(state.opt_m[name], copied.opt_m[name]), name
            assert np.array_equal(state.opt_v[name], copied.opt_v[name]), name

    def test_an_eval_pass_keeps_no_k_by_b_by_v_buffer(self):
        # it keeps each row's log-softmax value at its target, K x B values
        components = tuple(KernelSpec(k) for k in ("lin", "pow", "ssg", "hpb"))
        state = make_state(V=10, components=components, seed=8)
        eval_mod.mean_nll_and_pi(state, [[2, 3, 4, 5, 6, 7, 8, 9]] * 80)
        lanes = []
        while not state.ws._free.empty():
            lanes.append(state.ws._free.get())
        sizes = [buf.size for ws in [state.ws] + lanes for buf in ws._buffers.values()]
        assert lanes and sizes
        assert max(sizes) == eval_mod.EVAL_BATCH * 10  # a lane's logits, B x V
        assert "lsm" not in state.ws._buffers

    def test_no_cache_outlives_its_batch(self, monkeypatch):
        # at each _forward call, count the caches of earlier batches still alive
        state = make_state(V=10, components=(KernelSpec("lin"), KernelSpec("pow")))
        refs, live = [], []
        forward = output_layer._forward

        def spy(*args):
            live.append(sum(ref() is not None for ref in refs))
            cache = forward(*args)
            refs.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(output_layer, "_forward", spy)
        monkeypatch.setattr(eval_mod, "EVAL_BATCH", 4)
        eval_mod.mean_nll_and_pi(state, [[2, 3, 4, 5, 6, 7, 8, 9, 2, 3]] * 2)
        assert live == [0] * 5

    @pytest.mark.parametrize("across", [False, True])
    def test_pi_variance_is_the_regularized_one(self, across):
        # the third value is _pi_variance over every position, in the mode
        # the loss regularizes, however the positions are batched
        state = make_state(V=10, components=(KernelSpec("lin"), KernelSpec("pow")),
                           seed=4, reg_across_data=across)
        state.out.M *= 20.0
        sentences = [[2, 3, 4, 5, 6], [7, 8, 9]] * 120
        windows, _ = data.make_examples(sentences, state.config.n)
        H, _ = encoder.encode(state.enc, windows)
        pi = output_layer._forward(state.mixture, state.out, H).pi
        _, _, pi_var = eval_mod.mean_nll_and_pi(state, sentences)
        assert len(windows) > eval_mod.EVAL_BATCH
        assert pi_var == pytest.approx(output_layer._pi_variance(pi, across), rel=1e-12)


class TestCurves:
    def test_values_match_kernel_module(self, tmp_path):
        specs = [KernelSpec(k) for k in kernels.KINDS]
        paths = eval_mod.emit_kernel_curves(specs, x_max=10.0, steps=50,
                                            out_dir=tmp_path)
        assert len(paths) == len(kernels.KINDS)
        for spec, path in zip(specs, paths):
            with open(path) as f:
                rows = f.read().splitlines()
            assert rows[0] == "x,score,dscore_dx"
            assert len(rows) == 51
            xs = np.array([float(r.split(",")[0]) for r in rows[1:]])
            s, ds = kernels.radial_profile(spec, xs)
            got_s = np.array([float(r.split(",")[1]) for r in rows[1:]])
            got_ds = np.array([float(r.split(",")[2]) for r in rows[1:]])
            assert np.allclose(got_s, s, rtol=1e-11, atol=1e-12)
            assert np.allclose(got_ds, ds, rtol=1e-11, atol=1e-12)

    def test_pow_slope_is_minus_one(self):
        xs = np.linspace(0, 10, 5)
        s, ds = kernels.radial_profile(KernelSpec("pow", p=2), xs)
        assert np.allclose(s, -xs, atol=1e-15)
        assert np.allclose(ds, -1.0, atol=1e-15)

    def test_rbf_tail_derivative(self):
        _, ds = kernels.radial_profile(KernelSpec("rbf", gamma=1.0),
                                       np.array([10.0]))
        assert ds[0] == pytest.approx(-math.exp(-10.0), rel=1e-12)
        assert abs(ds[0]) < 1e-3

    def test_distance_kernels_peak_at_zero(self, tmp_path):
        xs = np.linspace(0.0, 5.0, 40)
        for kind in ("log", "pow", "rbf", "wav", "hpb"):
            s, _ = kernels.radial_profile(KernelSpec(kind), xs)
            assert np.argmax(s) == 0, kind

    @pytest.mark.parametrize("kind", ["rbf", "pow", "ssg", "hpb"])
    def test_negative_range_rejected_for_squared_distances(self, kind, tmp_path):
        with pytest.raises(ValueError, match=kind):
            eval_mod.emit_kernel_curves([KernelSpec("lin"), KernelSpec(kind)],
                                        -3.0, 5, tmp_path)
        assert not tmp_path.joinpath("curve_lin.csv").exists()

    def test_negative_range_kept_for_dot_products(self, tmp_path):
        specs = [KernelSpec("lin"), KernelSpec("pol", p=3)]
        paths = eval_mod.emit_kernel_curves(specs, -3.0, 5, tmp_path)
        with open(paths[0]) as f:
            rows = f.read().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, -0.75, -1.5, -2.25, -3.0]

    def test_determinism(self, tmp_path):
        spec = [KernelSpec("rbf")]
        eval_mod.emit_kernel_curves(spec, 10.0, 20, tmp_path / "a")
        eval_mod.emit_kernel_curves(spec, 10.0, 20, tmp_path / "b")
        assert (tmp_path / "a" / "curve_rbf.csv").read_bytes() == \
               (tmp_path / "b" / "curve_rbf.csv").read_bytes()


class TestProbe:
    def make_vocab(self, V):
        tokens = [f"t{i}" for i in range(V - 2)]
        return data.Vocabulary(["<bos>", "<unk>"] + tokens)

    def test_query_is_its_own_nearest_neighbor(self):
        state = make_state(V=10, seed=1)
        vocab = self.make_vocab(10)
        report = eval_mod.disambiguation_probe(state, vocab, ["t3"])
        q = report.queries[0]
        assert q.neighbors[0][0] == "t3"

    def test_identical_columns_have_zero_gap(self):
        state = make_state(V=10, seed=2)
        state.out.W[:, 4] = state.out.W[:, 5]
        vocab = self.make_vocab(10)
        report = eval_mod.disambiguation_probe(state, vocab, ["t2"])
        names = [n for n, _ in report.queries[0].neighbors]
        sims = dict(report.queries[0].neighbors)
        assert sims["t2"] == sims["t3"]
        assert {"t2", "t3"} <= set(names)

    def test_context_reports_are_consistent(self):
        state = make_state(
            V=10, components=(KernelSpec("lin"), KernelSpec("pow")), seed=3)
        vocab = self.make_vocab(10)
        report = eval_mod.disambiguation_probe(
            state, vocab, ["t1"], contexts=[["t0", "t2"], ["t4"]], top_m=4)
        q = report.queries[0]
        assert len(q.neighbors) == 4
        assert len(q.contexts) == 2
        for ctx in q.contexts:
            assert ctx.pi.shape == (2,)
            assert ctx.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert ctx.neighbor_logits.shape == (2, 4)
            assert np.all(ctx.neighbor_posterior >= 0)
            assert len(ctx.top_predictions) == 4
        text = report.to_text()
        assert "query: t1" in text and "pi:" in text
        tsv = report.to_tsv()
        assert tsv.count("neighbor\t") == 4

    @pytest.mark.parametrize("top_m", [0, -1])
    def test_top_m_below_one_rejected(self, top_m):
        with pytest.raises(ValueError, match="top_m"):
            eval_mod.disambiguation_probe(make_state(V=10), self.make_vocab(10),
                                          ["t1"], top_m=top_m)

    def test_unknown_query_rejected(self):
        state = make_state(V=10)
        vocab = self.make_vocab(10)
        with pytest.raises(Exception):
            eval_mod.disambiguation_probe(state, vocab, ["nope"])

    def test_distinguishing_contexts_shift_predictions(self):
        # train a tiny model on a corpus where w003 deterministically
        # follows w001; the trained posterior should prefer w003 after w001
        lines = data.generate_zipf(8, 3000, seed=0, copy_prob=0.9)
        vocab, split = data.prepare_corpus(lines, max_size=10, seed=0)
        config = TrainConfig(components=(KernelSpec("lin"),), n=2, d=8,
                             d_e=8, batch_size=32, learning_rate=5e-2,
                             optimizer="sgd", max_epochs=5, seed=0, rho=0.0)
        best, _ = training.train(config, split, vocab.V)
        # find the most common bigram in the training split
        from collections import Counter
        bigrams = Counter()
        for s in split.train:
            bigrams.update(zip(s, s[1:]))
        (a, b), _ = bigrams.most_common(1)[0]
        tok_a = vocab.decode(a)
        report = eval_mod.disambiguation_probe(
            best, vocab, [tok_a], contexts=[[tok_a]], top_m=3)
        top = report.queries[0].contexts[0].top_predictions
        assert vocab.decode(b) in [t for t, _ in top]
