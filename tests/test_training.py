import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from ksoftmax import data, training
from ksoftmax import eval as eval_mod
from ksoftmax.errors import DivergenceDetected, KsoftmaxError
from ksoftmax.kernels import KernelSpec, Workspace
from ksoftmax.training import (TrainConfig, clip_gradients, grid_search,
                               init_state, load_checkpoint, named_tensors,
                               save_checkpoint, train, train_step, train_steps)

V = 12


def make_config(**kw):
    base = dict(components=(KernelSpec("lin"),), n=2, d=4, d_e=4,
                batch_size=8, learning_rate=1e-2, max_epochs=2, seed=0,
                rho=0.0)
    base.update(kw)
    return TrainConfig(**base)


def toy_split(n_tokens=400, seed=0):
    lines = data.generate_zipf(V - 2, n_tokens, seed=seed)
    vocab, split = data.prepare_corpus(lines, max_size=V, seed=seed)
    assert vocab.V <= V
    return split


def snapshot(state):
    return {name: t.copy() for name, t in named_tensors(state)}


class TestTrainStep:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        split = toy_split()
        state = init_state(make_config(learning_rate=0.0, optimizer="sgd"), V)
        before = snapshot(state)
        train_steps(state, split, 3)
        after = dict(named_tensors(state))
        for name in before:
            assert np.array_equal(before[name], after[name]), name

    def test_step_changes_every_tensor(self):
        split = toy_split()
        state = init_state(make_config(
            components=(KernelSpec("lin"), KernelSpec("pow"))), V)
        before = snapshot(state)
        train_steps(state, split, 5)
        after = dict(named_tensors(state))
        for name in before:
            assert not np.array_equal(before[name], after[name]), name

    def test_identical_seeds_produce_identical_traces(self):
        split = toy_split()
        runs = []
        for _ in range(2):
            state = init_state(make_config(seed=3), V)
            losses = []
            for windows, targets in data.batch_windows(
                    split.train, 2, 8, seed=3):
                losses.append(train_step(state, windows, targets)[0])
            runs.append((losses, snapshot(state)))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_loss_decreases_on_average(self):
        split = toy_split(2000)
        state = init_state(make_config(), V)
        losses = []
        for _ in range(3):
            for windows, targets in data.batch_windows(
                    split.train, 2, 8, seed=0, epoch=state.epoch):
                losses.append(train_step(state, windows, targets)[0])
            state.epoch += 1
            state.step_in_epoch = 0
        k = len(losses) // 4
        assert np.mean(losses[-k:]) < np.mean(losses[:k])


class TestClipping:
    def test_norm_after_clipping(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=(5, 5)) * 100,
                 "b": rng.normal(size=7) * 100}
        pre = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        reported = clip_gradients(grads, clip_norm=5.0)
        post = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert reported == pytest.approx(pre, rel=1e-12)
        assert post == pytest.approx(5.0, rel=1e-12)

    def test_squares_in_a_stale_workspace_give_the_same_norm(self):
        rng = np.random.default_rng(1)
        grads = {"a": rng.normal(size=(6, 4)), "b": rng.normal(size=9),
                 "c": np.array(2.5)}
        ws = Workspace()
        ws.take("update.tmp", (30,)).fill(np.nan)
        copies = {k: g.copy() for k, g in grads.items()}
        assert (clip_gradients(grads, clip_norm=1.0, ws=ws)
                == clip_gradients(copies, clip_norm=1.0))
        for name in grads:
            assert np.array_equal(grads[name], copies[name]), name

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, -0.2])}
        before = grads["a"].copy()
        clip_gradients(grads, clip_norm=5.0)
        assert np.array_equal(grads["a"], before)


class TestWorkspace:
    @pytest.mark.parametrize("kinds", ["lin pow ssg hpb", "mog rbf wav log pol", "pow1.5"])
    def test_stale_buffer_contents_are_never_read(self, kinds):
        components = ((KernelSpec("pow", p=1.5),) if kinds == "pow1.5"
                      else tuple(KernelSpec(k) for k in kinds.split()))
        split = toy_split()
        state = init_state(make_config(components=components, rho=0.1), V)
        train_steps(state, split, 2)
        fresh = copy.deepcopy(state)
        assert state.ws._buffers and not fresh.ws._buffers
        for buf in state.ws._buffers.values():
            buf.fill(np.nan)
        train_steps(state, split, 3)
        train_steps(fresh, split, 3)
        for name, arr in named_tensors(state):
            assert np.array_equal(arr, dict(named_tensors(fresh))[name]), name
            assert np.array_equal(state.opt_v[name], fresh.opt_v[name]), name

    def test_a_loaded_state_starts_with_an_empty_workspace(self, tmp_path):
        state = init_state(make_config(), V)
        train_steps(state, toy_split(), 1)
        save_checkpoint(state, tmp_path / "a.ckpt")
        assert not load_checkpoint(tmp_path / "a.ckpt").ws._buffers


class TestCheckpoint:
    @pytest.mark.parametrize("components", [
        (KernelSpec("lin"),),
        (KernelSpec("ssg"), KernelSpec("mog"), KernelSpec("hpb")),
    ])
    def test_resume_is_bit_exact(self, tmp_path, components):
        split = toy_split()
        config = make_config(components=components)

        state = init_state(config, V)
        train_steps(state, split, 7)
        save_checkpoint(state, tmp_path / "mid.ckpt")
        train_steps(state, split, 6)
        uninterrupted = snapshot(state)

        resumed = load_checkpoint(tmp_path / "mid.ckpt")
        train_steps(resumed, split, 6)
        recovered = snapshot(resumed)

        assert uninterrupted.keys() == recovered.keys()
        for name in uninterrupted:
            assert np.array_equal(uninterrupted[name], recovered[name]), name
        assert state.step == resumed.step

    def test_resume_after_crash_rewrites_no_metrics_row(self, tmp_path):
        split = toy_split()
        config = make_config(max_epochs=2, patience=10)
        train(config, split, V, out_dir=tmp_path / "whole")

        out = tmp_path / "resumed"
        train(config, split, V, out_dir=out, max_epochs=1)
        epoch1 = (out / "last.ckpt").read_bytes()
        train(config, split, V, out_dir=out, state=load_checkpoint(out / "last.ckpt"))
        # a crash after epoch 2's row was written, before last.ckpt was saved
        (out / "last.ckpt").write_bytes(epoch1)
        train(config, split, V, out_dir=out, state=load_checkpoint(out / "last.ckpt"))

        assert ((out / "metrics.csv").read_bytes()
                == (tmp_path / "whole" / "metrics.csv").read_bytes())

    def test_resume_into_new_directory_writes_header(self, tmp_path):
        split = toy_split()
        config = make_config(max_epochs=2, patience=10)
        train(config, split, V, out_dir=tmp_path / "first", max_epochs=1)
        train(config, split, V, out_dir=tmp_path / "resumed",
              state=load_checkpoint(tmp_path / "first" / "last.ckpt"))
        rows = (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()
        assert rows[0] == ",".join(training._metrics_header(1))
        assert [r.split(",")[0] for r in rows[1:]] == ["2"]

    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        state = init_state(make_config(), V)
        save_checkpoint(state, path)
        before = path.read_bytes()
        train_steps(state, toy_split(), 2)
        written = []

        def fail_on_third_tensor(arr, dtype=None):
            written.append(arr)
            if len(written) == 3:
                raise OSError("disk full")
            return np.asarray(arr, dtype=dtype)
        monkeypatch.setattr(np, "ascontiguousarray", fail_on_third_tensor)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]
        assert load_checkpoint(path).step == 0

    def test_loads_checkpoint_carrying_learn_variances(self, tmp_path):
        # the removed KernelSpec.learn_variances field is still present in
        # the header of checkpoints written before its removal
        config = make_config(components=(KernelSpec("lin"), KernelSpec("ssg")))
        state = init_state(config, V)
        save_checkpoint(state, tmp_path / "new.ckpt")
        blob = (tmp_path / "new.ckpt").read_bytes()
        old = blob.replace(b'"mog_log_of_sum"',
                           b'"learn_variances": true, "mog_log_of_sum"')
        assert old.count(b"learn_variances") == 2
        (tmp_path / "old.ckpt").write_bytes(old)
        loaded = load_checkpoint(tmp_path / "old.ckpt")
        assert loaded.config == config
        for (name, a), (_, b) in zip(named_tensors(state), named_tensors(loaded)):
            assert np.array_equal(a, b), name

    def test_loads_checkpoint_carrying_rng_state(self, tmp_path):
        # checkpoints written before TrainState.rng was removed carry its
        # generator state in an "rng" header line
        split = toy_split()
        state = init_state(make_config(), V)
        train_steps(state, split, 3)
        save_checkpoint(state, tmp_path / "new.ckpt")
        rng_state = json.dumps(np.random.default_rng(0).bit_generator.state)
        blob = (tmp_path / "new.ckpt").read_bytes()
        old = blob.replace(b"\ntensor ", f"\nrng {rng_state}\ntensor ".encode(), 1)
        (tmp_path / "old.ckpt").write_bytes(old)
        new, loaded = (load_checkpoint(tmp_path / f"{name}.ckpt")
                       for name in ("new", "old"))
        for resumed in (new, loaded):
            train_steps(resumed, split, 4)
        assert loaded.step == new.step == 7
        for (name, a), (_, b) in zip(named_tensors(new), named_tensors(loaded)):
            assert np.array_equal(a, b), name

    def test_round_trip_preserves_config(self, tmp_path):
        config = make_config(rho=0.25, optimizer="sgd",
                             components=(KernelSpec("rbf", gamma=0.5),
                                         KernelSpec("wav", a=2.0)))
        state = init_state(config, V)
        save_checkpoint(state, tmp_path / "a.ckpt")
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded.config == config
        assert loaded.mixture.V == V


class TestTrainLoop:
    def test_writes_artifacts_and_metric_columns(self, tmp_path):
        split = toy_split()
        best, metrics = train(make_config(max_epochs=2), split, V,
                              out_dir=tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,dev_ppl,pi_mean_1,reg_term"
        assert len(metrics) == 2
        assert all(math.isfinite(row["dev_ppl"]) for row in metrics)

    def test_early_stopping(self):
        split = toy_split(300)
        config = make_config(max_epochs=50, patience=2, learning_rate=0.0,
                             optimizer="sgd")
        _, metrics = train(config, split, V)
        # dev PPL never improves after epoch 1, so training stops early
        assert len(metrics) <= 1 + 2

    def test_best_state_has_lowest_dev_ppl(self):
        split = toy_split()
        best, metrics = train(make_config(max_epochs=3), split, V)
        assert best.best_dev_ppl == pytest.approx(
            min(row["dev_ppl"] for row in metrics))

    def test_non_finite_logits_name_their_component(self):
        split = toy_split()
        state = init_state(make_config(
            components=(KernelSpec("lin"), KernelSpec("ssg"))), V)
        state.out.word_log_vars[:] = np.nan
        windows, targets = next(data.batch_windows(split.train, 2, 8, seed=0))
        with pytest.raises(DivergenceDetected) as info:
            train_step(state, windows, targets)
        assert info.value.component == 1
        assert "component 1 (ssg)" in str(info.value)

    def test_divergence_saves_last_finite_checkpoint(self, tmp_path):
        split = toy_split()
        config = make_config(learning_rate=1e8, optimizer="sgd",
                             clip_norm=1e300, max_epochs=3,
                             components=(KernelSpec("pol", p=3),))
        with pytest.raises(DivergenceDetected), np.errstate(over="ignore"):
            train(config, split, V, out_dir=tmp_path)
        assert (tmp_path / "last.ckpt").exists()
        recovered = load_checkpoint(tmp_path / "last.ckpt")
        for _, t in named_tensors(recovered):
            assert np.all(np.isfinite(t))


    def test_empty_dev_split_rejected_before_the_first_step(self, tmp_path):
        split = dataclasses.replace(toy_split(), dev=[])
        state = init_state(make_config(), V)
        with pytest.raises(KsoftmaxError, match="dev split"):
            train(make_config(), split, V, out_dir=tmp_path, state=state)
        assert state.step == 0
        assert not (tmp_path / "metrics.csv").exists()


class TestBatchStream:
    def test_train_and_train_steps_walk_the_same_batches(self):
        split = toy_split()
        config = make_config(max_epochs=2, patience=10,
                             components=(KernelSpec("lin"), KernelSpec("pow")))
        steps = 2 * data.num_batches(split.train, config.batch_size)
        trained = init_state(config, V)
        train(config, split, V, state=trained)  # advances ``trained`` in place
        whole = init_state(config, V)
        train_steps(whole, split, steps)
        pieces = init_state(config, V)
        train_steps(pieces, split, 7)
        train_steps(pieces, split, steps - 7)
        for state in (whole, pieces):
            assert (state.epoch, state.step, state.step_in_epoch) == (
                trained.epoch, trained.step, trained.step_in_epoch)
            for (name, a), (_, b) in zip(named_tensors(trained),
                                         named_tensors(state)):
                assert np.array_equal(a, b), name

    def test_empty_split_is_an_error(self):
        split = dataclasses.replace(toy_split(), train=[])
        with pytest.raises(KsoftmaxError, match="empty training split"):
            train_steps(init_state(make_config(), V), split, 1)


class TestEpochRollover:
    def test_state_is_current_at_every_yield(self):
        split = toy_split()
        state = init_state(make_config(), V)
        nb = data.num_batches(split.train, state.config.batch_size)
        seen = []
        for _ in range(2):
            for _ in training._epoch_steps(state, split):
                seen.append((state.epoch, state.step, state.step_in_epoch))
        # step i of epoch e is seen before step i + 1 runs; the epoch's last
        # step is seen with the state already at the next epoch's start
        assert seen == [(e + (i == nb), e * nb + i, i % nb)
                        for e in range(2) for i in range(1, nb + 1)]

    @pytest.mark.parametrize("sentences", [[], [[], []]])
    def test_train_on_an_empty_split_is_an_error(self, sentences, tmp_path):
        split = dataclasses.replace(toy_split(), train=sentences)
        with pytest.raises(KsoftmaxError, match="empty training split"):
            train(make_config(), split, V, out_dir=tmp_path)

    def test_a_state_past_the_last_batch_is_an_error(self):
        split = toy_split()
        state = init_state(make_config(), V)
        state.step_in_epoch = data.num_batches(split.train, state.config.batch_size)
        with pytest.raises(KsoftmaxError, match="past the last"):
            train_steps(state, split, 1)


class TestBestCheckpoint:
    @staticmethod
    def overflowing_dev(monkeypatch):
        real = eval_mod.mean_nll_and_pi

        def overflow(state, sentences):
            _, pi_mean, pi_var = real(state, sentences)
            return 1e6, pi_mean, pi_var
        monkeypatch.setattr(eval_mod, "mean_nll_and_pi", overflow)

    def test_run_with_no_finite_dev_ppl_leaves_one(self, tmp_path, monkeypatch):
        self.overflowing_dev(monkeypatch)
        best, metrics = train(make_config(max_epochs=3), toy_split(), V,
                              out_dir=tmp_path)
        assert [r["dev_ppl"] for r in metrics] == [math.inf] * 3
        loaded = load_checkpoint(tmp_path / "best.ckpt")
        assert (loaded.epoch, loaded.step, loaded.best_dev_ppl) == (
            best.epoch, best.step, best.best_dev_ppl)
        for (name, a), (_, b) in zip(named_tensors(loaded), named_tensors(best)):
            assert np.array_equal(a, b), name

    def test_resume_that_never_improves_keeps_the_earlier_one(
            self, tmp_path, monkeypatch):
        split = toy_split()
        train(make_config(max_epochs=1), split, V, out_dir=tmp_path)
        before = (tmp_path / "best.ckpt").read_bytes()
        self.overflowing_dev(monkeypatch)
        train(make_config(), split, V, out_dir=tmp_path, max_epochs=2,
              state=load_checkpoint(tmp_path / "last.ckpt"))
        assert load_checkpoint(tmp_path / "last.ckpt").epoch == 2
        assert (tmp_path / "best.ckpt").read_bytes() == before


class TestGridSearch:
    def test_singleton_grid(self, tmp_path):
        split = toy_split()
        results = grid_search(make_config(max_epochs=1),
                              {"learning_rate": [1e-2]}, split, V,
                              out_dir=tmp_path)
        assert len(results) == 1
        assert results[0]["rank"] == 1
        assert (tmp_path / "grid_results.csv").exists()

    def test_two_by_two_grid_is_ranked(self, tmp_path):
        split = toy_split()
        results = grid_search(
            make_config(max_epochs=1),
            {"learning_rate": [1e-3, 1e-2], "d": [4, 6]}, split, V,
            out_dir=tmp_path)
        assert len(results) == 4
        ppls = [r["dev_ppl"] for r in results]
        assert ppls == sorted(ppls)
        assert [r["rank"] for r in results] == [1, 2, 3, 4]
        rows = (tmp_path / "grid_results.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 4 points

    def test_two_jobs_match_one(self, tmp_path):
        split = toy_split()
        config, grid = make_config(max_epochs=1), {"learning_rate": [1e-3, 1e-2]}
        serial = grid_search(config, grid, split, V, out_dir=tmp_path / "one")
        parallel = grid_search(config, grid, split, V, out_dir=tmp_path / "two",
                               jobs=2)
        assert parallel == serial
        assert ((tmp_path / "two" / "grid_results.csv").read_bytes()
                == (tmp_path / "one" / "grid_results.csv").read_bytes())

    def test_point_scores_dev_once_per_epoch(self, tmp_path, monkeypatch):
        split = toy_split()
        real = eval_mod.mean_nll_and_pi
        calls = []

        def spy(state, sentences):
            calls.append(sentences is split.dev)
            return real(state, sentences)
        monkeypatch.setattr(eval_mod, "mean_nll_and_pi", spy)
        config = make_config(max_epochs=3, patience=10,
                             components=(KernelSpec("lin"), KernelSpec("pow")))
        results = grid_search(config, {"learning_rate": [1e-2]}, split, V,
                              out_dir=tmp_path)
        assert calls == [True] * 3
        best = load_checkpoint(tmp_path / "point_000" / "best.ckpt")
        _, _, pi_var = real(best, split.dev)
        assert pi_var > 0
        assert float(results[0]["pi_var_mean"]).hex() == float(pi_var).hex()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(make_config(), {}, toy_split(), V)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            make_config(batch_size=0)
        with pytest.raises(ValueError):
            make_config(optimizer="rmsprop")
        with pytest.raises(ValueError):
            make_config(components=())

    def test_rejects_a_kernel_field_the_kind_does_not_read(self):
        with pytest.raises(ValueError, match="'p'"):
            make_config(components=(KernelSpec("ssg"), KernelSpec("lin", p=3.0)))

    def test_rejects_mog_components_with_different_num_gauss(self):
        with pytest.raises(ValueError, match="num_gauss"):
            make_config(components=(KernelSpec("mog", num_gauss=2),
                                    KernelSpec("mog", num_gauss=3)))
        make_config(components=(KernelSpec("mog", num_gauss=2), KernelSpec("ssg"),
                                KernelSpec("mog", num_gauss=2)))

    def test_round_trips_through_dict(self):
        config = make_config(components=(KernelSpec("mog", num_gauss=3),
                                         KernelSpec("pol", p=2)),
                             rho=0.5, optimizer="sgd")
        assert TrainConfig.from_dict(config.to_dict()) == config
