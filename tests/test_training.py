import copy
import dataclasses
import gc
import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from ksoftmax import cli, data, kernels, output_layer, training
from ksoftmax import encoder as encoder_mod
from ksoftmax import eval as eval_mod
from ksoftmax.errors import CorruptCheckpoint, DivergenceDetected, KsoftmaxError
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


def assert_same_state(a, b):
    """Every trainable tensor and Adam slot of two states is bit-identical."""
    b_tensors = dict(named_tensors(b))
    for name, arr in named_tensors(a):
        assert np.array_equal(arr, b_tensors[name]), name
        assert np.array_equal(a.opt_m[name], b.opt_m[name]), name
        assert np.array_equal(a.opt_v[name], b.opt_v[name]), name


def use_lanes(monkeypatch, n):
    """Give every mixture pass in a workspace min(K, n) lanes, however
    small its arrays: n = 1 is the serial loop."""
    monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, n))


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


class TestUpdateOracle:
    # one update of a few elements against plain Python floats, in the
    # update's order of operations: the first Adam step, from zero
    # moments, and the third, from moments of earlier steps
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_one_update_against_python_floats(self, optimizer, t):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        state = init_state(TrainConfig(components=(KernelSpec("lin"),), n=1, d=1,
                                       learning_rate=lr, optimizer=optimizer), 2)
        rng = np.random.default_rng(53)
        size = state.grad.size
        params, grad = rng.normal(size=size), rng.normal(size=size)
        m, v = (rng.normal(size=size), rng.uniform(0.0, 1.0, size)) if t > 1 else (
            np.zeros(size), np.zeros(size))
        state.flat["params"][:], state.grad[:], state.step = params, grad, t - 1
        if optimizer == "adam":
            state.flat["adam.m"][:], state.flat["adam.v"][:] = m, v
        training._apply_update(state)
        for i in range(size):
            p, g = float(params[i]), float(grad[i])
            if optimizer == "sgd":
                assert state.flat["params"][i] == p - lr * g
                continue
            mi = b1 * float(m[i]) + (1 - b1) * g
            vi = b2 * float(v[i]) + (1 - b2) * g * g
            step = lr * (mi / (1 - b1 ** t)) / (math.sqrt(vi / (1 - b2 ** t)) + eps)
            assert state.flat["adam.m"][i] == mi and state.flat["adam.v"][i] == vi
            assert state.flat["params"][i] == p - step


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

    def test_squares_in_a_stale_workspace_give_the_same_norm(self, monkeypatch):
        rng = np.random.default_rng(1)
        for lanes in (1, 2):
            grads = {"a": rng.normal(size=(6, 4)), "b": rng.normal(size=9),
                     "c": np.array(2.5)}
            use_lanes(monkeypatch, lanes)
            ws = Workspace()
            clip_gradients({k: g.copy() for k, g in grads.items()}, clip_norm=1.0, ws=ws)
            for lane in ws.scratch:
                for buf in lane._buffers.values():
                    buf.fill(np.nan)
            copies = {k: g.copy() for k, g in grads.items()}
            assert (clip_gradients(grads, clip_norm=1.0, ws=ws)
                    == clip_gradients(copies, clip_norm=1.0))
            assert (ws._pool is not None) == (lanes > 1)
            for name in grads:
                assert np.array_equal(grads[name], copies[name]), name

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, -0.2])}
        before = grads["a"].copy()
        clip_gradients(grads, clip_norm=5.0)
        assert np.array_equal(grads["a"], before)


class TestWorkspace:
    @pytest.mark.parametrize("kinds", ["lin pow ssg hpb", "mog rbf wav log pol", "pow1.5"])
    def test_stale_buffer_contents_are_never_read(self, kinds, monkeypatch):
        components = ((KernelSpec("pow", p=1.5),) if kinds == "pow1.5"
                      else tuple(KernelSpec(k) for k in kinds.split()))
        use_lanes(monkeypatch, 2)
        split = toy_split()
        state = init_state(make_config(components=components, rho=0.1), V)
        train_steps(state, split, 2)
        fresh = copy.deepcopy(state)
        assert state.ws._buffers and not fresh.ws._buffers
        # K = 1 too: clipping squares the tensors on the lanes
        assert state.ws._pool is not None
        lanes = state.ws.scratch
        assert lanes and all(lane._buffers for lane in lanes)
        for ws in [state.ws] + lanes:
            for buf in ws._buffers.values():
                buf.fill(np.nan)
        state.grad.fill(np.nan)
        train_steps(state, split, 3)
        train_steps(fresh, split, 3)
        for name, arr in named_tensors(state):
            assert np.array_equal(arr, dict(named_tensors(fresh))[name]), name
            assert np.array_equal(state.opt_v[name], fresh.opt_v[name]), name

    def test_a_train_step_keeps_no_batch_sized_lane_scratch(self, monkeypatch):
        # the keeping pass and backward run over tiles, so a lane's scratch
        # holds at most a tile, a d x V product or a whole tensor
        components = tuple(KernelSpec(k) for k in ("lin", "pow", "ssg", "hpb"))
        state = init_state(make_config(components=components, batch_size=16, rho=0.1), 50)
        monkeypatch.setattr(kernels, "TILE_SIZE", 3 * 50)
        use_lanes(monkeypatch, 2)
        windows = np.random.default_rng(2).integers(0, 50, size=(16, 2))
        train_step(state, windows, np.arange(16) % 50)
        assert 16 * 50 > kernels.TILE_SIZE
        largest = max(3 * 50, 4 * 50, max(g.size for g in state.grads.values()))
        assert len(state.ws.scratch) == 2
        for lane in state.ws.scratch:
            assert lane._buffers
            for key, buf in lane._buffers.items():
                assert buf.size <= largest, key

    # what each kind keeps for its VJP: x only where the VJP reads it (not
    # rbf's, nor pow's and log's at p = 2), and never hpb's z nor the pair
    # terms of mog's log-of-sum
    KEPT = {"lin": (), "pol": ("base",), "pow": (), "pow(p=1.5)": ("x",), "log": ("power",),
            "log(p=3)": ("x", "power"), "rbf": ("exp",), "ssg": ("x",), "mog": ("x",),
            "mog(mog_log_of_sum=true)": ("x",), "hpb": ("x",), "wav": ("x", "cos", "exp")}

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("kind", list(KEPT))
    def test_a_train_step_keeps_only_what_backward_reads(self, kind, k):
        # component 0's gradient of W is written into the state's gradient
        spec = cli.parse_kernel_list(kind)[0]
        components = (spec, KernelSpec("lin")) if k == 0 else (KernelSpec("lin"), spec)
        state = init_state(make_config(components=components, rho=0.1), V)
        train_steps(state, toy_split(), 1)
        expected = {"lsm", ("dW", 1)} | {(name, k) for name in self.KEPT[kind]}
        assert set(state.ws._buffers) == expected

    def test_train_releases_the_lanes_whole_batch_scoring_buffers(self, monkeypatch):
        # a dev evaluation scores batches of EVAL_BATCH rows, each into a
        # lane's B x V logits buffer; no later training step needs it
        vocab, split = data.prepare_corpus(data.generate_zipf(1200, 12000, seed=1),
                                           max_size=1026, seed=0)
        assert vocab.V >= 1026 and sum(map(len, split.dev)) >= eval_mod.EVAL_BATCH
        config = make_config(components=(KernelSpec("lin"), KernelSpec("pow")),
                             batch_size=64)
        state = init_state(config, vocab.V)
        use_lanes(monkeypatch, 2)
        train(config, split, vocab.V, state=state, max_epochs=1)
        tile = kernels.TILE_SIZE // vocab.V * vocab.V
        largest = max(config.d * vocab.V, tile, max(g.size for g in state.grads.values()))
        for _ in range(2):  # as train returns, and after a further step
            assert len(state.ws.scratch) == 2
            for lane in state.ws.scratch:
                for key, buf in lane._buffers.items():
                    assert buf.size <= largest, key
            train_steps(state, split, 1)

    def test_a_loaded_state_starts_with_an_empty_workspace(self, tmp_path):
        state = init_state(make_config(), V)
        train_steps(state, toy_split(), 1)
        save_checkpoint(state, tmp_path / "a.ckpt")
        assert not load_checkpoint(tmp_path / "a.ckpt").ws._buffers


NINE_KINDS = " ".join(kernels.KINDS)


class TestLanes:
    # with lanes each component's chain runs on a thread of the state's
    # workspace; nothing may depend on how many there are

    @pytest.mark.parametrize("kinds", ["lin pow ssg hpb", NINE_KINDS])
    def test_lanes_give_the_bits_of_the_serial_loop(self, kinds, monkeypatch):
        config = make_config(components=tuple(KernelSpec(k) for k in kinds.split()),
                             rho=0.1)
        split = toy_split()
        states = []
        for n in (2, 1):
            use_lanes(monkeypatch, n)
            states.append(init_state(config, V))
            train_steps(states[-1], split, 5)
        assert states[0].ws._pool is not None and states[1].ws._pool is None
        assert_same_state(*states)

    def test_stress_more_lanes_than_cores(self, monkeypatch):
        config = make_config(components=tuple(KernelSpec(k) for k in kernels.KINDS),
                             rho=0.1, reg_across_data=True)
        split = toy_split()
        serial = init_state(config, V)
        use_lanes(monkeypatch, 1)
        train_steps(serial, split, 4)
        state = init_state(config, V)
        use_lanes(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=train_steps, args=(state, split, 4),
                                      daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert state.ws._pool[0] == 4 and state.step == 4
        assert_same_state(state, serial)

    def test_the_callers_errstate_holds_in_the_lanes(self, monkeypatch):
        # component 1 overflows in (alpha w.h + c)^3
        config = output_layer.MixtureConfig(
            components=(KernelSpec("lin"), KernelSpec("pol", p=3, alpha=1e300),
                        KernelSpec("pow")), d=4, V=V)
        params = output_layer.init_output_params(config, np.random.default_rng(0))
        H = np.tanh(np.random.default_rng(1).normal(size=(5, 4)))
        for n in (1, 3):
            use_lanes(monkeypatch, n)
            ws = Workspace()
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                output_layer._forward(config, params, H, np.arange(5), ws, True)
            assert (ws._pool is not None) == (n > 1)

    def test_passes_that_want_fewer_lanes_keep_the_pool(self, monkeypatch):
        # the K = 2 components want 2 lanes, the update's many chunks 4
        use_lanes(monkeypatch, 4)
        monkeypatch.setattr(kernels, "TILE_SIZE", 7)
        split = toy_split()
        state = init_state(make_config(components=(KernelSpec("lin"),
                                                   KernelSpec("pow"))), V)
        train_steps(state, split, 1)
        pool = state.ws._pool
        assert pool[0] == 4
        train_steps(state, split, 2)
        assert state.ws._pool is pool

    def test_no_lane_thread_outlives_a_train(self, monkeypatch):
        def lane_threads():
            return {t for t in threading.enumerate() if t.name.startswith("ksoftmax-lane")}

        gc.collect()
        before = lane_threads()
        use_lanes(monkeypatch, 2)
        config = make_config(components=(KernelSpec("lin"), KernelSpec("pow")))
        state = init_state(config, V)
        train(config, toy_split(), V, state=state)
        assert state.ws._pool is not None and lane_threads() - before
        del state
        gc.collect()
        deadline = time.monotonic() + 1.0
        while lane_threads() - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not lane_threads() - before

    def test_divergence_names_the_lowest_component_and_leaves_no_trace(
            self, monkeypatch):
        config = make_config(components=(KernelSpec("lin"), KernelSpec("ssg"),
                                         KernelSpec("ssg")), rho=0.1)
        split = toy_split()
        windows, targets = data.make_examples(split.train, config.n)
        batch = windows[:config.batch_size], targets[:config.batch_size]
        state = init_state(config, V)
        use_lanes(monkeypatch, 3)
        train_steps(state, split, 2)
        saved = [v.copy() for v in state.out.component_log_vars[1:]]
        for v in state.out.component_log_vars[1:]:
            v[()] = np.inf  # every logit of components 1 and 2 is -inf
        messages = []
        for n in (3, 1):
            use_lanes(monkeypatch, n)
            with pytest.raises(DivergenceDetected) as info:
                train_step(state, *batch)
            assert info.value.component == 1
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "component 1 (ssg)" in messages[0]
        for v, old in zip(state.out.component_log_vars[1:], saved):
            v[()] = old
        copied = copy.deepcopy(state)
        use_lanes(monkeypatch, 3)
        assert train_step(state, *batch) == train_step(copied, *batch)
        assert_same_state(state, copied)


def assert_flat_layout(state):
    """Each trainable tensor, Adam slot and gradient view is its own slice
    of its vector, with the name and shape _tensor_shapes gives it, laid end
    to end in that order. Overwrites the vectors."""
    shapes = training._tensor_shapes(state.config, state.V)
    adam = state.config.optimizer == "adam"
    assert list(state.flat) == ["params", "adam.m", "adam.v"][:3 if adam else 1]
    if not adam:
        assert state.opt_m == state.opt_v == {}
    tables = {"params": (state.flat["params"], dict(named_tensors(state))),
              "grad": (state.grad, state.grads)}
    if adam:
        tables.update({f"adam.{s}": (state.flat[f"adam.{s}"], slots)
                       for s, slots in (("m", state.opt_m), ("v", state.opt_v))})
    for key, (vec, table) in tables.items():
        assert [(name, arr.shape) for name, arr in table.items()] == shapes, key
        # distinct values written to the vector show up in the tensors in order
        vec[...] = np.arange(vec.size)
        laid_out = np.concatenate([arr.ravel() for arr in table.values()])
        assert np.array_equal(laid_out, np.arange(vec.size)), key


def assert_same_flat(a: dict, b: dict):
    """Two states' flat vectors are bit-identical."""
    assert list(a) == list(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key


FLAT_KINDS = (KernelSpec("lin"), KernelSpec("ssg"), KernelSpec("mog"), KernelSpec("hpb"))
# each kind alone (K = 1: no M, no C), and ssg beside mog, whose word
# variances it shares
LAYOUT_KINDS = [*kernels.KINDS, "ssg mog"]


class TestFlatLayout:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_tensors_and_slots_are_views_into_the_flat_vectors(self, tmp_path, optimizer):
        state = init_state(make_config(components=FLAT_KINDS, optimizer=optimizer), V)
        train_steps(state, toy_split(), 3)
        save_checkpoint(state, tmp_path / "a.ckpt")
        copied = copy.deepcopy(state)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        for each in (copied, loaded, state):
            assert_flat_layout(each)

    @pytest.mark.parametrize("kinds", LAYOUT_KINDS)
    def test_every_kind_follows_the_tensor_shapes(self, tmp_path, kinds):
        config = make_config(components=tuple(KernelSpec(k) for k in kinds.split()))
        names = [name for name, _ in training._tensor_shapes(config, V)]
        assert ("out.M" in names) == ("out.C" in names) == (" " in kinds)
        state = init_state(config, V)
        train_steps(state, toy_split(), 2)
        save_checkpoint(state, tmp_path / "a.ckpt")
        copied, loaded = copy.deepcopy(state), load_checkpoint(tmp_path / "a.ckpt")
        for each in (copied, loaded):  # its own gradient, and an empty workspace
            assert not np.shares_memory(each.grad, state.grad) and not each.ws._buffers
        for each in (init_state(config, V), copied, loaded):
            assert_flat_layout(each)

    def test_a_load_runs_no_init_and_draws_no_random_number(self, tmp_path, monkeypatch):
        state = init_state(make_config(components=FLAT_KINDS), V)
        train_steps(state, toy_split(), 3)
        save_checkpoint(state, tmp_path / "a.ckpt")

        def forbidden(*args, **kwargs):
            raise AssertionError("a load builds no random model")
        for module, name in ((training, "init_state"), (np.random, "default_rng"),
                             (kernels, "project_to_ball")):
            monkeypatch.setattr(module, name, forbidden)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        monkeypatch.undo()
        assert_same_flat(loaded.flat, state.flat)
        assert ((loaded.epoch, loaded.step, loaded.step_in_epoch, loaded.best_dev_ppl)
                == (state.epoch, state.step, state.step_in_epoch, state.best_dev_ppl))

    def test_a_write_to_a_deep_copy_leaves_the_original_unchanged(self):
        split = toy_split()
        state = init_state(make_config(components=FLAT_KINDS), V)
        train_steps(state, split, 2)
        before = copy.deepcopy(state.flat)
        copied = copy.deepcopy(state)
        copied.out.W[...] = 0.1
        copied.opt_v["out.comp_log_vars.1"][...] = 2.0
        train_steps(copied, split, 2)
        assert copied.step == 4 and state.step == 2
        assert_same_flat(state.flat, before)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_save_load_save_gives_identical_bytes(self, tmp_path, optimizer):
        state = init_state(make_config(components=FLAT_KINDS, optimizer=optimizer), V)
        train_steps(state, toy_split(), 3)
        save_checkpoint(state, tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_steps_give_the_same_bits_in_any_chunking(self, monkeypatch, optimizer):
        # a clip norm that every step exceeds, and hpb's projection to the ball
        config = make_config(components=(KernelSpec("lin"), KernelSpec("pow"),
                                         KernelSpec("ssg"), KernelSpec("hpb")),
                             optimizer=optimizer, clip_norm=1e-3, rho=0.1)
        split = toy_split()
        norms = []
        real = training.clip_gradients
        monkeypatch.setattr(training, "clip_gradients",
                            lambda *args: norms.append(real(*args)) or norms[-1])
        use_lanes(monkeypatch, 1)
        whole = init_state(config, V)
        train_steps(whole, split, 5)
        assert len(norms) == 5 and min(norms) > config.clip_norm
        monkeypatch.setattr(kernels, "TILE_SIZE", 7)
        for n in (1, 2):
            use_lanes(monkeypatch, n)
            chunked = init_state(config, V)
            train_steps(chunked, split, 5)
            assert (chunked.ws._pool is not None) == (n > 1)
            assert_same_flat(chunked.flat, whole.flat)


class TestDivergence:
    @staticmethod
    def poison(monkeypatch, value, names):
        """Put ``value`` into one element of each named gradient, as
        encode_backward or backward return it."""
        def wrap(module, attr):
            real = getattr(module, attr)

            def poisoned(*args, **kwargs):
                result = real(*args, **kwargs)
                grads = result[0] if isinstance(result, tuple) else result
                for name in names:
                    part, field, *k = name.split(".")
                    if (part == "enc") == (module is encoder_mod):
                        arr = (grads.component_log_vars[int(k[0])] if k
                               else getattr(grads, field))
                        arr.reshape(-1)[arr.size // 2] = value
                return result
            monkeypatch.setattr(module, attr, poisoned)
        wrap(encoder_mod, "encode_backward")
        wrap(output_layer, "backward")

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("names, first", [
        (["enc.F"], "enc.F"), (["out.W"], "out.W"), (["out.C"], "out.C"),
        (["out.comp_log_vars.2"], "out.comp_log_vars.2"),
        (["out.M", "enc.bias"], "enc.bias"),
        (["out.word_log_vars", "out.W", "enc.E"], "enc.E"),
    ])
    def test_a_non_finite_gradient_names_the_first_bad_tensor(
            self, monkeypatch, lanes, names, first):
        config = make_config(components=(KernelSpec("lin"), KernelSpec("ssg"),
                                         KernelSpec("ssg")), rho=0.1)
        split = toy_split()
        state = init_state(config, V)
        train_steps(state, split, 2)
        before = copy.deepcopy(state)
        use_lanes(monkeypatch, lanes)
        monkeypatch.setattr(kernels, "TILE_SIZE", 5)
        self.poison(monkeypatch, np.nan, names)
        windows, targets = next(data.batch_windows(split.train, config.n, 8, seed=0))
        with pytest.raises(DivergenceDetected) as info:
            train_step(state, windows, targets)
        assert str(info.value) == f"non-finite gradient in {first} at step 2"
        assert info.value.component == first
        assert (state.step, state.step_in_epoch) == (before.step, before.step_in_epoch)
        assert_same_flat(state.flat, before.flat)

    def test_finite_gradients_whose_squares_overflow_do_not_diverge(self, monkeypatch):
        config = make_config(components=(KernelSpec("lin"), KernelSpec("pow")))
        split = toy_split()
        state = init_state(config, V)
        self.poison(monkeypatch, 1e200, ["enc.E", "out.W"])
        windows, targets = next(data.batch_windows(split.train, config.n, 8, seed=0))
        with np.errstate(over="ignore"):
            train_step(state, windows, targets)
        assert state.step == 1
        assert all(np.isfinite(vec).all() for vec in state.flat.values())


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

    def test_a_header_of_header_limit_bytes_loads_and_one_byte_more_does_not(self, tmp_path):
        state = init_state(make_config(), V)
        save_checkpoint(state, tmp_path / "a.ckpt")
        head, body = (tmp_path / "a.ckpt").read_bytes().split(b"\nend\n", 1)
        # an unknown header line is read and ignored: it pads the header
        pad = training.HEADER_LIMIT - len(head) - len(b"\npad \nend\n")
        for extra, loads in ((0, True), (1, False)):
            path = tmp_path / f"padded{extra}.ckpt"
            header = head + b"\npad " + b"x" * (pad + extra) + b"\nend\n"
            assert len(header) == (1 << 20) + extra
            path.write_bytes(header + body)
            if loads:
                assert load_checkpoint(path).config == state.config
            else:
                with pytest.raises(CorruptCheckpoint, match="no end line"):
                    load_checkpoint(path)

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


class Crash(Exception):
    pass


class TestCrashAtEveryCheckpointWrite:
    # a 3-epoch run that improves every epoch saves six checkpoints
    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_resume_writes_the_files_of_an_uninterrupted_run(
            self, tmp_path, monkeypatch, n):
        split = toy_split()
        config = make_config(max_epochs=3, patience=10)
        real = training.save_checkpoint
        saves = []

        def save(state, path):
            saves.append(os.path.basename(path))
            if len(saves) == n:
                raise Crash(f"crash at save {n}")
            real(state, path)
        monkeypatch.setattr(training, "save_checkpoint", save)
        with pytest.raises(Crash):
            train(config, split, V, out_dir=tmp_path / "crashed")
        monkeypatch.undo()
        last = tmp_path / "crashed" / "last.ckpt"
        train(config, split, V, out_dir=tmp_path / "crashed",
              state=load_checkpoint(last) if last.exists() else None)

        saves.clear()
        monkeypatch.setattr(training, "save_checkpoint",
                            lambda state, path: saves.append(os.path.basename(path))
                            or real(state, path))
        train(config, split, V, out_dir=tmp_path / "whole")
        assert saves.count("best.ckpt") == saves.count("last.ckpt") == 3
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert ((tmp_path / "crashed" / name).read_bytes()
                    == (tmp_path / "whole" / name).read_bytes()), name


class TestBestCheckpoint:
    @staticmethod
    def overflowing_dev(monkeypatch):
        real = eval_mod.mean_nll_and_pi

        def overflow(state, sentences):
            _, pi_mean, pi_var = real(state, sentences)
            return 1e6, pi_mean, pi_var
        monkeypatch.setattr(eval_mod, "mean_nll_and_pi", overflow)

    def test_run_with_no_finite_dev_ppl_diverges(self, tmp_path, monkeypatch):
        self.overflowing_dev(monkeypatch)
        with pytest.raises(DivergenceDetected, match="no finite dev perplexity by epoch 3"):
            train(make_config(max_epochs=3), toy_split(), V, out_dir=tmp_path)
        assert load_checkpoint(tmp_path / "last.ckpt").epoch == 3
        assert not (tmp_path / "best.ckpt").exists()
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["inf"] * 3

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

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_resume_that_never_improves_returns_the_best_state(
            self, tmp_path, optimizer):
        # at learning rate 0 the second epoch's dev ppl ties the first's
        split = toy_split()
        config = make_config(learning_rate=0.0, optimizer=optimizer)
        train(config, split, V, out_dir=tmp_path, max_epochs=1)
        best, metrics = train(config, split, V, out_dir=tmp_path, max_epochs=2,
                              state=load_checkpoint(tmp_path / "last.ckpt"))
        assert metrics[0]["dev_ppl"] == best.best_dev_ppl
        assert best.epoch == 1 and load_checkpoint(tmp_path / "last.ckpt").epoch == 2
        save_checkpoint(best, tmp_path / "returned.ckpt")
        assert ((tmp_path / "returned.ckpt").read_bytes()
                == (tmp_path / "best.ckpt").read_bytes())


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

    def test_defaults_are_the_cli_defaults(self, monkeypatch):
        # a library caller gets the defaults of the ksoftmax command; an
        # unset seed there falls back to $KSOFTMAX_SEED, then 0
        monkeypatch.delenv("KSOFTMAX_SEED", raising=False)
        shared = [f for f in dataclasses.fields(TrainConfig) if f.name in cli._CONFIG_KEYS]
        assert len(shared) == 12
        for f in shared:
            want = cli._resolve_seed(None) if f.name == "seed" else cli._DEFAULTS[f.name]
            assert f.default == want, f.name

    def test_round_trips_through_dict(self):
        config = make_config(components=(KernelSpec("mog", num_gauss=3),
                                         KernelSpec("pol", p=2)),
                             rho=0.5, optimizer="sgd")
        assert TrainConfig.from_dict(config.to_dict()) == config
