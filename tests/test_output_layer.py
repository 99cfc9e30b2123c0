import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksoftmax import gradcheck, kernels, output_layer, training
from ksoftmax.errors import HpbOutsideBall, NonFiniteScore, TargetOutOfRange
from ksoftmax.kernels import KernelSpec, Workspace
from ksoftmax.output_layer import MixtureConfig, init_output_params

ALL_KINDS = ("lin", "log", "pow", "pol", "rbf", "ssg", "mog", "hpb", "wav")


def make(components, d=4, V=7, rho=0.0, seed=0, **kw):
    config = MixtureConfig(components=tuple(components), d=d, V=V, rho=rho, **kw)
    params = init_output_params(config, np.random.default_rng(seed))
    return config, params


class TestMixtureConfig:
    @pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0])
    def test_rejects_a_rho_that_is_not_finite_and_nonnegative(self, rho):
        with pytest.raises(ValueError, match="rho"):
            MixtureConfig(components=(KernelSpec("lin"),), d=4, V=7, rho=rho)

    def test_rejects_mog_components_with_different_num_gauss(self):
        with pytest.raises(ValueError, match="num_gauss"):
            MixtureConfig(components=(KernelSpec("mog", num_gauss=2),
                                      KernelSpec("mog", num_gauss=3)), d=4, V=7)


class TestMixtureWeights:
    # pi is read from the forward cache, the one place it is computed
    def test_single_component_is_degenerate(self):
        config, params = make([KernelSpec("lin")])
        _, cache = output_layer.posterior(config, params, np.random.normal(size=(3, 4)))
        assert np.array_equal(cache.pi, np.ones((3, 1)))

    def test_zero_matrix_gives_uniform(self):
        config, params = make([KernelSpec("lin")] * 3)
        params.M[:] = 0.0
        _, cache = output_layer.posterior(config, params, np.random.normal(size=(2, 4)))
        assert np.allclose(cache.pi, 1.0 / 3.0)

    def test_huge_logits_do_not_overflow(self):
        config, params = make([KernelSpec("lin")] * 2, d=2)
        params.M[:] = 1000.0
        _, cache = output_layer.posterior(config, params, np.ones((1, 2)))
        assert np.allclose(cache.pi, [[0.5, 0.5]])
        assert np.all(np.isfinite(cache.pi))


class TestTransformContexts:
    def test_zero_transform(self):
        C = np.zeros((2, 3, 3))
        out = output_layer.transform_contexts(C, np.random.normal(size=(4, 3)))
        assert all(np.array_equal(o, np.zeros((4, 3))) for o in out)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(0)
        C = rng.normal(size=(2, 5, 5)) * 10
        out = output_layer.transform_contexts(C, rng.normal(size=(6, 5)) * 10)
        for o in out:
            assert np.all(np.abs(o) <= 1.0)

    def test_saturation_matches_high_precision_tanh(self):
        import mpmath
        C = np.eye(3)[None] * 50.0
        H = np.array([[3.0, 8.0, 20.0]])
        out = output_layer.transform_contexts(C, H)[0]
        expected = [float(mpmath.tanh(50 * v)) for v in H[0]]
        assert np.allclose(out, expected, rtol=0, atol=1e-15)
        assert np.all(np.isfinite(out))


class TestPosterior:
    def test_k1_lin_is_textbook_softmax(self):
        config, params = make([KernelSpec("lin")])
        rng = np.random.default_rng(1)
        H = rng.normal(size=(5, config.d))
        probs, _ = output_layer.posterior(config, params, H)
        logits = H @ params.W
        reference = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(probs, reference, rtol=0, atol=1e-12)

    def test_identical_components_reduce_to_single(self):
        config2, params2 = make([KernelSpec("pow"), KernelSpec("pow")], seed=2)
        params2.M[:] = 0.0
        params2.C[1] = params2.C[0]
        config1 = MixtureConfig(components=(KernelSpec("pow"),),
                                d=config2.d, V=config2.V)
        rng = np.random.default_rng(3)
        H = rng.normal(size=(4, config2.d))
        p2, _ = output_layer.posterior(config2, params2, H)
        # single-component posterior on the transformed context
        h1 = np.tanh(H @ params2.C[0])
        from ksoftmax.output_layer import OutputParams
        p1, _ = output_layer.posterior(
            config1, OutputParams(W=params2.W), h1)
        assert np.allclose(p2, p1, atol=1e-12)

    def test_matches_bruteforce_double_loop(self):
        config, params = make([KernelSpec("lin"), KernelSpec("pow", p=2)],
                              d=4, V=7, seed=4)
        rng = np.random.default_rng(5)
        H = rng.normal(size=(3, 4))
        probs, cache = output_layer.posterior(config, params, H)

        from ksoftmax import kernels as kmod
        pi = cache.pi
        h_tilde = output_layer.transform_contexts(params.C, H)
        for b in range(3):
            for v in range(7):
                total = 0.0
                for k, spec in enumerate(config.components):
                    s_v = kmod.score(spec, params.W[:, v], h_tilde[k][b])
                    denom = sum(
                        math.exp(kmod.score(spec, params.W[:, vp], h_tilde[k][b]))
                        for vp in range(7))
                    total += pi[b, k] * math.exp(s_v) / denom
                assert abs(probs[b, v] - total) < 1e-10

    @pytest.mark.parametrize("kinds", [
        ("lin",), ("rbf",), ("ssg",), ("mog",), ("hpb",),
        ("lin", "pow"), ("log", "rbf", "wav"), ("ssg", "mog", "hpb"),
    ])
    def test_rows_sum_to_one(self, kinds):
        config, params = make([KernelSpec(k) for k in kinds], d=5, V=11, seed=6)
        rng = np.random.default_rng(7)
        H = np.tanh(rng.normal(size=(4, 5)) * 2)
        probs, cache = output_layer.posterior(config, params, H)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(cache.pi.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_rows_sum_to_one_large_parameters(self):
        config, params = make([KernelSpec("lin"), KernelSpec("pow")], d=4, V=6)
        params.W *= 50 / np.abs(params.W).max()
        rng = np.random.default_rng(8)
        H = rng.uniform(-50, 50, size=(3, 4))
        probs, _ = output_layer.posterior(config, params, H)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_mixing_is_convex(self):
        config, params = make([KernelSpec("lin"), KernelSpec("rbf")], seed=9)
        rng = np.random.default_rng(10)
        H = rng.normal(size=(3, config.d))
        probs, cache = output_layer.posterior(config, params, H)
        comp = np.exp(cache.lsm)  # K x B x V
        assert np.all(probs >= comp.min(axis=0) - 1e-12)
        assert np.all(probs <= comp.max(axis=0) + 1e-12)

    def test_shift_invariance_per_component(self):
        # adding a constant to one component's logits leaves the posterior
        # unchanged; realized here with pol: (1*w.h + c)^1 shifts by c
        d, V = 4, 6
        rng = np.random.default_rng(11)
        H = rng.normal(size=(3, d))
        base = [KernelSpec("lin"), KernelSpec("pol", alpha=1.0, c=0.0, p=1)]
        shifted = [KernelSpec("lin"), KernelSpec("pol", alpha=1.0, c=7.5, p=1)]
        config_a, params = make(base, d=d, V=V, seed=12)
        config_b = MixtureConfig(components=tuple(shifted), d=d, V=V)
        pa, _ = output_layer.posterior(config_a, params, H)
        pb, _ = output_layer.posterior(config_b, params, H)
        assert np.allclose(pa, pb, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
    def test_row_stochasticity_property(self, seed, K):
        rng = np.random.default_rng(seed)
        kinds = rng.choice(["lin", "pow", "log", "rbf", "wav", "pol"], size=K)
        config, params = make([KernelSpec(str(k)) for k in kinds],
                              d=3, V=5, seed=seed)
        H = rng.uniform(-5, 5, size=(2, 3))
        probs, cache = output_layer.posterior(config, params, H)
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(cache.pi.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestLoss:
    def test_rho_zero_is_plain_cross_entropy(self):
        config, params = make([KernelSpec("lin"), KernelSpec("pow")], rho=0.0)
        rng = np.random.default_rng(13)
        H = rng.normal(size=(4, config.d))
        targets = rng.integers(0, config.V, 4)
        val, cache = output_layer.loss(config, params, H, targets)
        probs, _ = output_layer.posterior(config, params, H)
        ce = -np.log(probs[np.arange(4), targets]).mean()
        assert val == pytest.approx(ce, rel=1e-12)
        assert cache.reg_term == 0.0

    @pytest.mark.parametrize("kinds", [("pow",), ("lin", "pow", "ssg")])
    @pytest.mark.parametrize("across", [False, True])
    def test_rho_zero_loss_bits_without_the_variance(self, kinds, across):
        config, params = make([KernelSpec(k) for k in kinds], rho=0.0,
                              reg_across_data=across)
        rng = np.random.default_rng(16)
        H = rng.normal(size=(5, config.d))
        targets = rng.integers(0, config.V, 5)
        val, cache = output_layer.loss(config, params, H, targets)
        # the regularized expression, with the variance scaled by rho = 0
        full = (-float(cache.log_posterior.mean())
                + config.rho * output_layer._pi_variance(cache.pi, across))
        assert val.hex() == full.hex()
        assert cache.reg_term == 0.0

    def test_uniform_pi_gives_zero_regularizer(self):
        config, params = make([KernelSpec("lin"), KernelSpec("pow")], rho=5.0)
        params.M[:] = 0.0
        rng = np.random.default_rng(14)
        H = rng.normal(size=(4, config.d))
        targets = rng.integers(0, config.V, 4)
        _, cache = output_layer.loss(config, params, H, targets)
        assert cache.reg_term == 0.0

    def test_closed_form_ln2(self):
        config, params = make([KernelSpec("lin")], d=2, V=2)
        params.W[:] = 0.0  # p(target) = 0.5 everywhere
        H = np.random.default_rng(15).normal(size=(3, 2))
        val, _ = output_layer.loss(config, params, H, np.array([0, 1, 0]))
        assert val == pytest.approx(math.log(2), rel=1e-12)

    def test_target_out_of_range(self):
        config, params = make([KernelSpec("lin")])
        H = np.zeros((1, config.d))
        with pytest.raises(TargetOutOfRange):
            output_layer.loss(config, params, H, np.array([config.V]))

    def test_names_the_first_target_out_of_range(self):
        config, params = make([KernelSpec("lin")])
        H = np.zeros((4, config.d))
        targets = np.array([1, config.V + 2, -1, config.V])
        for ws in (None, Workspace()):
            with pytest.raises(TargetOutOfRange) as e:
                output_layer._forward(config, params, H, targets, ws)
            assert str(e.value) == f"target id {config.V + 2} outside [0, {config.V})"

    def test_ssg_beside_mog_reads_column_0_of_the_word_variances(self):
        config, params = make([KernelSpec("ssg"), KernelSpec("mog")], seed=51)
        rng = np.random.default_rng(52)
        params.word_log_vars[:] = rng.normal(size=params.word_log_vars.shape)
        params.component_log_vars[0][...] = 0.3
        h = np.tanh(rng.normal(size=(3, config.d)))
        got = output_layer.component_logits(config, params, h, 0)[0]
        for column, same in ((0, True), (1, False)):
            want = kernels.forward_logits(KernelSpec("ssg"), params.W, h,
                                          params.word_log_vars[:, column],
                                          params.component_log_vars[0])[0]
            assert np.array_equal(got, want) == same, column


# every kind, plus the kink (p<2) and log-of-sum variants
SPECS = ([KernelSpec(k) for k in ALL_KINDS]
         + [KernelSpec("log", p=1.5), KernelSpec("pow", p=1.5),
            KernelSpec("mog", mog_log_of_sum=True)])
# each spec alone and in a K=3 mixture, plus all nine kinds at once (numpy
# sums a memory-contiguous axis of 8 or more terms pairwise)
TARGET_MIXTURES = ([(s,) for s in SPECS]
                   + [(s, KernelSpec("lin"), KernelSpec("pow", p=1.5)) for s in SPECS]
                   + [tuple(SPECS[:len(ALL_KINDS)])])


def mixture_id(components):
    return "+".join(f"{s.kind}(p={s.p:g})" if s.kind in ("log", "pow") and s.p != 2
                    else f"{s.kind}(log-of-sum)" if s.mog_log_of_sum else s.kind
                    for s in components)


def cache_arrays(cache):
    """Every array a ForwardCache holds, its kernel caches' included."""
    out = [cache.pi, cache.log_pi, cache.lsm, cache.log_posterior, *cache.h_tilde]
    for kc in cache.kernel_caches:
        out += [v for tile in kc for v in tile.values() if isinstance(v, np.ndarray)]
    return [a for a in out if a is not None]


class TestNoWorkspace:
    # without a workspace every call allocates: a later call leaves an
    # earlier result unchanged
    def test_forward_results_survive_the_next_call(self):
        config, params = make(SPECS[:len(ALL_KINDS)], d=5, V=11, seed=32)
        rng = np.random.default_rng(33)
        H1, H2 = (np.tanh(rng.normal(size=(6, config.d))) for _ in range(2))
        targets = rng.integers(0, config.V, 6)
        first = output_layer._forward(config, params, H1, targets)
        before = [a.copy() for a in cache_arrays(first)]
        output_layer._forward(config, params, H2, targets[::-1].copy())
        for a, b in zip(cache_arrays(first), before):
            assert np.array_equal(a, b)

    def test_posterior_results_survive_the_next_call(self):
        config, params = make(SPECS[:len(ALL_KINDS)], d=5, V=11, seed=34)
        rng = np.random.default_rng(35)
        H1, H2 = (np.tanh(rng.normal(size=(6, config.d))) for _ in range(2))
        probs, cache = output_layer.posterior(config, params, H1)
        before = [a.copy() for a in [probs] + cache_arrays(cache)]
        output_layer.posterior(config, params, H2)
        for a, b in zip([probs] + cache_arrays(cache), before):
            assert np.array_equal(a, b)


class TestTargetOnlyForward:
    @pytest.mark.parametrize("B", [1, 64])
    @pytest.mark.parametrize("components", TARGET_MIXTURES, ids=mixture_id)
    def test_equals_full_posterior_at_targets(self, components, B):
        config, params = make(components, d=5, V=11, seed=30)
        rng = np.random.default_rng(31)
        H = np.tanh(rng.normal(size=(B, config.d)) * 2)
        targets = rng.integers(0, config.V, B)
        at_targets = output_layer._forward(config, params, H, targets)
        probs, cache = output_layer.posterior(config, params, H)
        assert at_targets.log_posterior.shape == (B,)
        assert cache.log_posterior is None
        np.testing.assert_allclose(at_targets.log_posterior,
                                   np.log(probs[np.arange(B), targets]),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("components", TARGET_MIXTURES, ids=mixture_id)
    def test_gradient_audit(self, components):
        cfg = training.TrainConfig(components=components, n=2, d=3, d_e=3,
                                   rho=0.1, seed=20)
        failures = gradcheck.check_pipeline(cfg, V=5, B=2, seed=21)
        assert not failures, f"{mixture_id(components)}: {failures}"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def chunk_slips() -> list:
    """(V, d, kinds, lanes, B) for each batch whose scoring pass, over row
    chunks, gives other log posteriors than the whole-batch pass: batches
    on each side of the chunk rule's row counts, at the benchmark's two
    vocabularies and two more shapes, on one lane and on two. A rule of
    flat 96-row chunks slips at V = 202."""
    slips, lane_count = [], kernels.lane_count
    shapes = ((202, 32, "pow"), (1029, 32, "lin hpb"), (7975, 32, "pow ssg"),
              (2000, 16, "wav rbf"))
    try:
        for (V, d, kinds), lanes in itertools.product(shapes, (1, 2)):
            config, params = make([KernelSpec(kind) for kind in kinds.split()], d=d, V=V,
                                  seed=49)
            kernels.lane_count = lambda K, size: min(K, lanes)
            rng = np.random.default_rng(50)
            ws = Workspace()
            for B in (1, 23, 24, 25, 47, 48, 49, 95, 96, 97, 167, 168, 169, 191, 192, 193,
                      335, 336, 337, 383, 384, 385, 511, 512):
                H = np.tanh(rng.normal(size=(B, d)))
                targets = rng.integers(0, V, B)
                scored = output_layer._forward(config, params, H, targets, ws)
                whole = output_layer._forward(config, params, H, targets)
                if not np.array_equal(scored.log_posterior, whole.log_posterior):
                    slips.append((V, d, kinds, lanes, B))
    finally:
        kernels.lane_count = lane_count
    return slips


def use_tiles(monkeypatch, rows, V):
    """Run every pass given a workspace over tiles of ``rows`` rows at V."""
    monkeypatch.setattr(kernels, "TILE_SIZE", rows * V)


def recorded_caches(monkeypatch) -> list:
    """A list that collects the kernel cache of every component_logits
    call, from any lane: a scoring pass returns none of them."""
    caches = []
    logits = output_layer.component_logits

    def recording(*args, **kwargs):
        L, cache = logits(*args, **kwargs)
        caches.append(cache)
        return L, cache
    monkeypatch.setattr(output_layer, "component_logits", recording)
    return caches


class TestTiles:
    # a pass with a workspace and targets that keeps nothing for backward
    # scores each component over tiles of rows and keeps only the targets'
    # log-softmax values: nothing may depend on the tile size

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("components",
                             [(s, KernelSpec("pow", p=1.5)) for s in SPECS]
                             + [tuple(SPECS[:len(ALL_KINDS)])], ids=mixture_id)
    def test_tiles_give_the_bits_of_the_whole_batch(self, components, rows, lanes,
                                                    monkeypatch):
        config, params = make(components, d=5, V=11, seed=40)
        monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, lanes))
        use_tiles(monkeypatch, rows, config.V)
        tiles = []
        at_targets = output_layer._log_softmax_at
        monkeypatch.setattr(output_layer, "_log_softmax_at",
                            lambda a, t: tiles.append(len(t)) or at_targets(a, t))
        caches = recorded_caches(monkeypatch)
        rng = np.random.default_rng(41)
        ws = Workspace()
        for B in (7, 5):  # the shorter batch reuses the longer one's buffers
            H = np.tanh(rng.normal(size=(B, config.d)) * 2)
            targets = rng.integers(0, config.V, B)
            tiles.clear()
            caches.clear()
            tiled = output_layer._forward(config, params, H, targets, ws)
            scored = caches[:]
            whole = output_layer._forward(config, params, H, targets)
            assert tiled.lsm is None
            assert np.array_equal(tiled.log_posterior, whole.log_posterior)
            assert np.array_equal(tiled.pi, whole.pi)
            for tile in (tile for cache in scored for tile in cache):
                assert "z" not in tile  # hpb's VJP recomputes it
            # the last tile is short unless rows divides B
            expected = [rows] * (B // rows) + ([B % rows] if B % rows else [])
            assert sorted(tiles) == sorted(expected * config.K)
        assert (ws._pool is not None) == (lanes > 1)

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("components",
                             [(s,) for s in SPECS]
                             + [(s, KernelSpec("pow", p=1.5)) for s in SPECS], ids=mixture_id)
    def test_a_keeping_pass_and_backward_give_the_bits_of_the_whole_batch(
            self, components, rows, lanes, monkeypatch):
        # the loss and every gradient, against the whole-batch chain of the
        # no-workspace path; 7 rows make one tile
        config, params = make(components, d=5, V=11, rho=0.1, seed=47)
        monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, lanes))
        use_tiles(monkeypatch, rows, config.V)
        rng = np.random.default_rng(48)
        ws = Workspace()
        for B in (7, 5):  # the shorter batch reuses the longer one's buffers
            H = np.tanh(rng.normal(size=(B, config.d)) * 2)
            targets = rng.integers(0, config.V, B)
            loss, kept = output_layer.loss(config, params, H, targets, ws)
            assert [len(c) for c in kept.kernel_caches] == [-(-B // rows)] * config.K
            got = output_layer.backward(config, params, kept)
            want_loss, whole = output_layer.loss(config, params, H, targets)
            want = output_layer.backward(config, params, whole)
            assert same_bits(loss, want_loss)
            assert same_bits(kept.log_posterior, whole.log_posterior)
            assert same_bits(got[1], want[1])
            for name in ("W", "M", "C", "word_log_vars"):
                g, w = getattr(got[0], name), getattr(want[0], name)
                assert (g is None) == (w is None) and (g is None or same_bits(g, w)), name
            for g, w in zip(got[0].component_log_vars, want[0].component_log_vars):
                assert (g is None) == (w is None) and (g is None or same_bits(g, w))
        assert lanes > 1 or ws._pool is None

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_non_finite_logit_names_its_row_in_the_batch(self, kind, monkeypatch):
        config, params = make([KernelSpec(kind)], d=5, V=11, seed=42)
        H = np.tanh(np.random.default_rng(43).normal(size=(7, config.d)))
        H[5] = np.nan  # in the second tile of 3 rows
        use_tiles(monkeypatch, 3, config.V)
        with pytest.raises(NonFiniteScore) as whole:
            output_layer._forward(config, params, H, np.arange(7))
        with pytest.raises(NonFiniteScore) as tiled:
            output_layer._forward(config, params, H, np.arange(7), Workspace())
        assert str(tiled.value) == str(whole.value)
        assert f"component 0 ({kind}): non-finite {kind} logit at (b=5, v=0)" == str(
            tiled.value)
        assert tiled.value.component == 0

    def test_a_scoring_pass_returns_no_kernel_caches(self):
        # its kept arrays are lane scratch, which the next component scored
        # on the same lane overwrites
        config, params = make([KernelSpec("hpb"), KernelSpec("pow", p=1.5)], d=4, V=7)
        H = np.tanh(np.random.default_rng(46).normal(size=(5, config.d)))
        targets = np.arange(5)
        for ws, for_backward in ((Workspace(), False), (Workspace(), True),
                                 (None, False), (None, True)):
            cache = output_layer._forward(config, params, H, targets, ws, for_backward)
            if ws is not None and not for_backward:
                assert cache.kernel_caches is None
            else:
                assert [c[0]["k"] for c in cache.kernel_caches] == [0, 1]
        without_targets = output_layer._forward(config, params, H, None, Workspace())
        assert without_targets.kernel_caches is None

    def test_a_scoring_pass_over_row_chunks_gives_the_bits_of_the_whole_batch(self):
        # in a child with BLAS on one thread, as the ksoftmax programs run
        # it: on more threads the product's bits depend on the thread count
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(os.path.dirname(kernels.__file__)), tests])
        code = "import test_output_layer as t; print(t.chunk_slips())"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, **dict.fromkeys(BLAS_THREADS, "1")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_the_chunk_rule(self):
        for V, d in ((2, 1), (202, 32), (1029, 32), (2000, 16), (7975, 4), (7975, 32),
                     (50_000, 64)):
            R = next(r for r in itertools.count(24, 24) if r * V * d > 10 ** 6)
            for B in {*range(1100), *(m * R + e for m in (1, 2, 5) for e in (-1, 0, 1))}:
                chunks = kernels.row_chunks(B, V, d)
                assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
                assert chunks[-1].stop == B
                for c in chunks:
                    assert c.start % 24 == 0
                    assert (c.stop - c.start) * V * d > 10 ** 6 or c == slice(0, B)
                    assert c.stop - c.start < 2 * R
                if (V, d) == (7975, 32):  # the benchmark's shape: R is 24
                    assert max(c.stop - c.start for c in chunks) < 48

    def test_an_empty_batch_is_one_empty_tile(self):
        config, params = make([KernelSpec("pow"), KernelSpec("lin")], d=4, V=7)
        H, targets = np.zeros((0, config.d)), np.zeros(0, dtype=int)
        for ws in (None, Workspace()):
            for for_backward in (False, True):
                cache = output_layer._forward(config, params, H, targets, ws, for_backward)
                assert cache.log_posterior.shape == (0,)
            grads, dH = output_layer.backward(config, params, cache)
            assert dH.shape == (0, config.d) and not grads.W.any()

    def test_a_context_outside_the_ball_names_its_row_in_the_batch(self, monkeypatch):
        config, params = make([KernelSpec("hpb")], d=5, V=11, seed=44)
        H = np.tanh(np.random.default_rng(45).normal(size=(7, config.d)))
        H[4] = 10.0
        use_tiles(monkeypatch, 3, config.V)
        with pytest.raises(HpbOutsideBall) as whole:
            output_layer._forward(config, params, H, np.arange(7))
        with pytest.raises(HpbOutsideBall) as tiled:
            output_layer._forward(config, params, H, np.arange(7), Workspace())
        assert str(tiled.value) == str(whole.value) == "context row 4 has norm >= 1"


class TestKeepRule:
    # every batch-sized statistic a VJP reads is kept in the workspace, and
    # a VJP reads nothing else

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: mixture_id((s,)))
    def test_a_keeping_pass_holds_no_batch_sized_heap_array(self, spec):
        # one B x V array is 4.1 MB here; what a warm workspace's second
        # loss leaves on the heap is the cache's per-word and per-row terms
        config, params = make([spec], d=32, V=7975, seed=60)
        rng = np.random.default_rng(61)
        H = np.tanh(rng.normal(size=(64, config.d)))
        targets = rng.integers(0, config.V, 64)
        ws = Workspace()
        output_layer.loss(config, params, H, targets, ws)
        tracemalloc.start()
        try:
            kept = output_layer.loss(config, params, H, targets, ws)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept[1].kernel_caches
        assert held < 1 << 20, f"{held / 2**20:.2f} MiB held"

    @pytest.mark.parametrize("spec", [KernelSpec("pow"), KernelSpec("log"), KernelSpec("rbf")],
                             ids=lambda s: s.kind)
    def test_a_vjp_that_keeps_no_x_reads_none(self, spec, monkeypatch):
        # a tile's x is lane scratch there, which the next tile overwrites
        config, params = make([spec, KernelSpec("lin")], d=5, V=11, rho=0.1, seed=62)
        use_tiles(monkeypatch, 3, config.V)
        rng = np.random.default_rng(63)
        H = np.tanh(rng.normal(size=(7, config.d)) * 2)
        targets = rng.integers(0, config.V, 7)
        ws = Workspace()
        grads = []
        for drop_x in (False, True):
            _, cache = output_layer.loss(config, params, H, targets, ws)
            if drop_x:
                for tile in cache.kernel_caches[0]:
                    del tile["x"]
            grads.append(output_layer.backward(config, params, cache))
        (want, want_dH), (got, got_dH) = grads
        assert same_bits(got_dH, want_dH)
        for name in ("W", "M", "C"):
            assert same_bits(getattr(got, name), getattr(want, name)), name


class TestBackward:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_finite_difference_all_kind_mixtures(self, K):
        # every kernel kind appears inside a K-sized mixture
        for base in ALL_KINDS:
            kinds = (base,) if K == 1 else (base, "lin", "pow")[:K]
            cfg = training.TrainConfig(
                components=tuple(KernelSpec(k) for k in kinds),
                n=2, d=3, d_e=3, rho=0.1, seed=20)
            failures = gradcheck.check_pipeline(cfg, V=5, B=2, seed=21)
            assert not failures, f"{kinds}: {failures}"

    def test_across_data_regularizer_gradient(self):
        cfg = training.TrainConfig(
            components=(KernelSpec("lin"), KernelSpec("log")),
            n=2, d=3, d_e=3, rho=0.7, reg_across_data=True, seed=22)
        assert not gradcheck.check_pipeline(cfg, V=5, B=3, seed=23)

    def test_k1_lin_matches_textbook_softmax_gradient(self):
        config, params = make([KernelSpec("lin")], d=3, V=5, rho=0.0)
        rng = np.random.default_rng(24)
        H = rng.normal(size=(4, 3))
        targets = rng.integers(0, 5, 4)
        _, cache = output_layer.loss(config, params, H, targets)
        grads, dH = output_layer.backward(config, params, cache)
        # independent direct implementation of the classical gradient
        logits = H @ params.W
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        delta = probs.copy()
        delta[np.arange(4), targets] -= 1.0
        expected_dW = H.T @ delta / 4
        assert np.allclose(grads.W, expected_dW, atol=1e-12)
        assert np.allclose(dH, delta @ params.W.T / 4, atol=1e-12)

    def test_regularizer_gradient_zero_at_uniform_pi(self):
        config, params = make([KernelSpec("lin"), KernelSpec("lin")], rho=3.0)
        params.M[:] = 0.0
        params.C[1] = params.C[0]
        rng = np.random.default_rng(25)
        H = rng.normal(size=(3, config.d))
        targets = rng.integers(0, config.V, 3)
        _, cache = output_layer.loss(config, params, H, targets)
        g_reg, _ = output_layer.backward(config, params, cache)
        config0 = MixtureConfig(components=config.components, d=config.d,
                                V=config.V, rho=0.0)
        _, cache0 = output_layer.loss(config0, params, H, targets)
        g_ce, _ = output_layer.backward(config0, params, cache0)
        assert np.allclose(g_reg.M, g_ce.M, atol=1e-14)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def whole_mass_batch(config, params):
    """(H, targets) where every target's logit beats the rest of its row by
    far more than exp underflows at, so the target holds the whole mass and
    its log-softmax value is exactly 0.0 (lin and pow)."""
    H = np.full((3, config.d), 20.0)
    H[2] = -20.0
    # pow: x = 0 at the target and >= 8,000 elsewhere; lin: logits of
    # 40,000 at the target and <= 0 elsewhere
    params.W[:] = 0.0 if config.components[0].kind == "lin" else 60.0
    params.W[:, 2] = 20.0 if config.components[0].kind == "pow" else 400.0
    params.W[:, 5] = -params.W[:, 2]
    return H, np.array([2, 2, 5])


class TestSingleComponent:
    # at K = 1 the mixture computes exact identities: log pi = 0, the mix
    # of lsm_t is lsm_t itself, and the responsibility q is 1.0

    @staticmethod
    def generic_backward(config, params, cache):
        """The gradients by the general mixture rule, q = exp(log_pi + lsm_t -
        log_post), each sum started from zeros; consumes cache.lsm."""
        spec, (B, d) = config.components[0], cache.H.shape
        rows = np.arange(B)
        lsm_t = cache.lsm[:, rows, cache.targets].T
        q = np.exp(cache.log_pi + lsm_t - cache.log_posterior[:, None])
        dL = np.exp(cache.lsm[0])
        dL = q[:, 0:1] / B * dL
        dL[rows, cache.targets] -= q[:, 0] / B
        dW, dH, dwlv, dclv = kernels.backward_logits(spec, cache.kernel_caches[0], dL)
        if spec.kind == "hpb":
            dH = dH * ((1.0 - kernels.BALL_MARGIN) / math.sqrt(d))
        out = [np.zeros(dW.shape) + dW, np.zeros(dH.shape) + dH]
        if dwlv is not None:
            out += [np.zeros(dwlv.shape) + dwlv, np.zeros(np.shape(dclv)) + dclv]
        return out

    @staticmethod
    def got(grads, dH):
        out = [grads.W, dH]
        if grads.word_log_vars is not None:
            out += [grads.word_log_vars, grads.component_log_vars[0]]
        return out

    def check(self, config, params, H, targets):
        B = len(targets)
        reference = output_layer._forward(config, params, H, targets, for_backward=True)
        lsm_t = reference.lsm[:, np.arange(B), targets]
        mixed = output_layer._log_mix(np.zeros((1, B)), lsm_t)
        expected = self.generic_backward(config, params, reference)
        ws = Workspace()
        for _ in range(2):  # the second pass reuses the workspace's buffers
            scored = output_layer._forward(config, params, H, targets, ws)
            assert scored.lsm is None and same_bits(scored.log_posterior, mixed)
            _, kept = output_layer.loss(config, params, H, targets, ws)
            assert same_bits(kept.log_posterior, mixed)
            got = self.got(*output_layer.backward(config, params, kept))
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert same_bits(g, e)
        return lsm_t

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_the_mix_and_the_gradients_of_the_general_rule(self, kind):
        config, params = make([KernelSpec(kind)], d=5, V=11, seed=50)
        rng = np.random.default_rng(51)
        H = np.tanh(rng.normal(size=(9, config.d)) * 2)
        self.check(config, params, H, rng.integers(0, config.V, 9))

    @pytest.mark.parametrize("kind", ["lin", "pow"])
    def test_a_target_that_holds_the_whole_mass(self, kind):
        config, params = make([KernelSpec(kind)], d=5, V=11, seed=52)
        lsm_t = self.check(config, params, *whole_mass_batch(config, params))
        assert not lsm_t.any() and not np.signbit(lsm_t).any()


class TestFirstTermSums:
    # backward starts each sum of terms from 0.0 + the first term: the bits
    # of adding the terms in component order to zeros, -0.0 -> +0.0 included

    @pytest.mark.parametrize("K", [1, 3])
    def test_minus_zero_terms_sum_as_they_do_from_zeros(self, K, monkeypatch):
        config, params = make([KernelSpec("lin")] * K, d=3, V=5, seed=53)
        rng = np.random.default_rng(54)
        H = np.tanh(rng.normal(size=(4, config.d)))
        targets = rng.integers(0, config.V, 4)
        # per component: -0.0 in the first row, then terms whose sum only
        # the order k = 0, 1, 2 (or 1, 0, 2) rounds to 5e15 + 4
        big = [1e16, 3.0, -5e15]
        terms = []
        for k in range(K):
            dW = np.full((config.d, config.V), big[k] if K > 1 else 2.5)
            dW[0] = -0.0
            dH = np.full((4, config.d), -0.0)
            dH[1:] = rng.normal(size=(3, config.d))
            terms.append((dW, dH))
        def backward_logits(spec, cache, dL, scratch=None, each=None, dW=None):
            # into dW when given, as the real one writes component 0's term
            dWk, dHk = terms[cache[0]["k"]]
            dW = dWk.copy() if dW is None else np.copyto(dW, dWk) or dW
            return dW, dHk.copy(), None, None

        monkeypatch.setattr(kernels, "backward_logits", backward_logits)
        monkeypatch.setattr(kernels, "TILE_SIZE", 4)  # dW's sum in 4 chunks
        _, cache = output_layer.loss(config, params, H, targets, Workspace())
        grads, dH = output_layer.backward(config, params, cache)
        expected = np.zeros(params.W.shape)
        for dW, _ in terms:
            expected += dW
        assert same_bits(grads.W, expected)
        assert not np.signbit(grads.W[0]).any()
        if K > 1:
            assert (grads.W[1:] == 5e15 + 4).all()
        else:
            assert same_bits(dH, np.zeros(dH.shape) + terms[0][1])
            assert not np.signbit(dH[0]).any()


class TestWavKeepsItsStatistics:
    def test_a_scoring_pass_keeps_x_cos_and_exp_apart(self, monkeypatch):
        config, params = make([KernelSpec("wav", a=0.7, b=1.9), KernelSpec("pow")],
                              d=5, V=11, seed=55)
        monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, 2))
        use_tiles(monkeypatch, 3, config.V)
        caches = recorded_caches(monkeypatch)
        rng = np.random.default_rng(56)
        ws = Workspace()
        for B in (7, 5):
            H = np.tanh(rng.normal(size=(B, config.d)) * 2)
            targets = rng.integers(0, config.V, B)
            caches.clear()
            tiled = output_layer._forward(config, params, H, targets, ws)
            (wav,) = [c[-1] for c in caches if c[0]["k"] == 0]
            whole = output_layer._forward(config, params, H, targets)
            assert same_bits(tiled.log_posterior, whole.log_posterior)
            arrays = [wav["x"], wav["cos"], wav["exp"]]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)
