import copy
import dataclasses
import math
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksoftmax import gradcheck, kernels
from ksoftmax.errors import DimensionMismatch, HpbOutsideBall
from ksoftmax.kernels import KernelSpec

# The kinds whose score is a function of the squared distance ||w - h||^2
# alone (hpb also of the two norms), in the order the trick-equivalence
# audit draws its inputs in.
DISTANCE_KINDS = ("log", "pow", "rbf", "wav", "hpb")


def vec(*xs):
    return np.asarray(xs, dtype=np.float64)


def score_via_trick(spec: KernelSpec, w_norm_sq: float, h_norm_sq: float,
                    dot: float) -> float:
    """A distance kind's score from cached norms and a dot product: the
    squared distance comes from the norm expansion
    ||w - h||^2 = ||w||^2 + ||h||^2 - 2 w.h, clamped at 0, as in the
    batched path at B = V = 1. rbf needs an explicit gamma, since the
    dimension is not seen."""
    wn, hn = np.full((1, 1), float(w_norm_sq)), np.full((1, 1), float(h_norm_sq))
    st = {"d": None, "wn": wn, "hn": hn, "out": np.empty((1, 1)),
          "x": kernels._sq_dist(wn, hn, np.full((1, 1), float(dot)), np.empty((1, 1)))}
    value = float(kernels.KERNELS[spec.kind].score(spec, st)[0, 0])
    assert math.isfinite(value), spec
    return value


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")

    @pytest.mark.parametrize("kwargs", [
        {"kind": "pow", "p": 0.0},
        {"kind": "log", "p": -1.0},
        {"kind": "pol", "p": 1.5},
        {"kind": "rbf", "gamma": -2.0},
        {"kind": "wav", "a": 0.0},
        {"kind": "wav", "b": -1.0},
        {"kind": "mog", "num_gauss": 0},
        {"kind": "pol", "p": math.inf},
        {"kind": "pow", "p": math.nan},
        {"kind": "log", "p": math.inf},
        {"kind": "pol", "alpha": math.inf},
        {"kind": "pol", "alpha": -math.inf},
        {"kind": "pol", "c": math.nan},
        {"kind": "pol", "c": -math.inf},
        {"kind": "rbf", "gamma": math.inf},
        {"kind": "wav", "a": math.inf},
        {"kind": "wav", "b": math.nan},
    ])
    def test_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "rbf", "a": 2.0},
        {"kind": "lin", "p": 3.0},
        {"kind": "ssg", "num_gauss": 4},
        {"kind": "hpb", "gamma": 0.5},
        {"kind": "pow", "mog_log_of_sum": True},
    ])
    def test_rejects_a_set_field_the_kind_does_not_read(self, kwargs):
        field = next(k for k in kwargs if k != "kind")
        with pytest.raises(ValueError, match=f"does not read kernel field '{field}'"):
            KernelSpec(**kwargs)

    def test_accepts_an_unread_field_at_its_default(self):
        assert KernelSpec("rbf", a=1.0, num_gauss=2) == KernelSpec("rbf")

    def test_alpha_gamma_default_to_inverse_dimension(self):
        s = KernelSpec("rbf")
        assert s.resolved("gamma", 4) == 0.25
        assert s.resolved("gamma", None) == 1.0
        assert KernelSpec("pol").resolved("alpha", 8) == 0.125
        assert KernelSpec("pol", alpha=0.5).resolved("alpha", 8) == 0.5


class TestScore:
    def test_lin_unit_inner_product(self):
        assert kernels.score(KernelSpec("lin"), vec(1, 0), vec(1, 0)) == 1.0

    def test_zero_distance_identities(self):
        w = vec(0.3, -0.7, 0.2)
        assert kernels.score(KernelSpec("pow", p=2), w, w) == 0.0
        assert kernels.score(KernelSpec("rbf", gamma=1.0), w, w) == 1.0
        assert kernels.score(KernelSpec("log", p=2), w, w) == 0.0
        assert kernels.score(KernelSpec("wav", a=1, b=1), w, w) == 1.0
        assert kernels.score(KernelSpec("hpb"), vec(0.1, 0), vec(0.1, 0)) == 0.0

    def test_pol_degree_one_reduces_to_lin(self):
        rng = np.random.default_rng(0)
        spec = KernelSpec("pol", alpha=1.0, c=0.0, p=1)
        for _ in range(20):
            w, h = rng.normal(size=5), rng.normal(size=5)
            assert kernels.score(spec, w, h) == pytest.approx(
                kernels.score(KernelSpec("lin"), w, h), abs=1e-15)

    def test_pow_elementwise_difference_oracle(self):
        # independent oracle: explicit elementwise squared difference
        w, h = vec(3, 0), vec(0, 4)
        oracle = -sum((wi - hi) ** 2 for wi, hi in zip(w, h))
        assert oracle == -25.0
        assert kernels.score(KernelSpec("pow", p=2), w, h) == oracle

    def test_ssg_matches_grid_quadrature_oracle(self):
        # numerically integrate the product of two 2-D spherical Gaussians
        var = 0.5
        xs = np.linspace(-6, 6, 801)
        dx = xs[1] - xs[0]
        X, Y = np.meshgrid(xs, xs)
        dens = np.exp(-(X ** 2 + Y ** 2) / (2 * var)) / (2 * math.pi * var)
        integral = float((dens * dens).sum() * dx * dx)
        expected = math.log(integral)
        got = kernels.score(KernelSpec("ssg"), vec(0.4, -0.2), vec(0.4, -0.2),
                            math.log(var), math.log(var))
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_mog_sums_pairwise_closed_forms(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec("mog", num_gauss=2)
        w, h = rng.normal(size=3), rng.normal(size=3)
        wlv, hlv = rng.normal(size=2), rng.normal(size=2)
        expected = sum(kernels.score(KernelSpec("ssg"), w, h, lw, lh)
                       for lw in wlv for lh in hlv)
        got = kernels.score(spec, w, h, wlv, hlv)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mog_log_of_sum_variant(self):
        rng = np.random.default_rng(2)
        spec = KernelSpec("mog", num_gauss=2, mog_log_of_sum=True)
        w, h = rng.normal(size=3), rng.normal(size=3)
        wlv, hlv = rng.normal(size=2), rng.normal(size=2)
        terms = [kernels.score(KernelSpec("ssg"), w, h, lw, lh)
                 for lw in wlv for lh in hlv]
        expected = math.log(sum(math.exp(t) for t in terms) / 4.0)
        assert kernels.score(spec, w, h, wlv, hlv) == pytest.approx(
            expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernels.score(KernelSpec("lin"), vec(1, 2), vec(1, 2, 3))

    @pytest.mark.parametrize("spec,log_vars", [
        (KernelSpec("ssg"), ()),
        (KernelSpec("ssg"), (0.1, vec(0.1))),
        (KernelSpec("mog", num_gauss=2), (vec(0.1, 0.2), vec(0.1, 0.2, 0.3))),
        (KernelSpec("mog", num_gauss=2), (0.1, 0.2)),
        (KernelSpec("lin"), (0.1, 0.2)),
    ], ids=["ssg-missing", "ssg-vector", "mog-wrong-G", "mog-scalar", "lin-given"])
    def test_log_variance_shape_mismatch(self, spec, log_vars):
        for fn in (kernels.score, kernels.grad):
            with pytest.raises(DimensionMismatch):
                fn(spec, vec(1, 2), vec(0, 1), *log_vars)

    def test_hpb_outside_ball(self):
        with pytest.raises(HpbOutsideBall):
            kernels.score(KernelSpec("hpb"), vec(1.2, 0), vec(0.1, 0))


class TestTrick:
    def test_pow_example(self):
        assert score_via_trick(KernelSpec("pow", p=2), 9, 16, 0) == -25.0

    def test_zero_distance_symmetry(self):
        for spec in (KernelSpec("pow", p=2), KernelSpec("log"),
                     KernelSpec("rbf", gamma=0.7), KernelSpec("wav")):
            w = vec(0.2, -0.4)
            wn = float(w @ w)
            assert score_via_trick(spec, wn, wn, wn) == \
                kernels.score(spec, w, w)

    @pytest.mark.parametrize("spec", [
        KernelSpec("pow", p=2),
        KernelSpec("pow", p=1.5),
        KernelSpec("log", p=2),
        KernelSpec("rbf", gamma=0.3),
        KernelSpec("wav", a=1.3, b=0.8),
    ])
    def test_paired_oracle_equivalence_sweep(self, spec):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            w = rng.uniform(-10, 10, 16)
            h = rng.uniform(-10, 10, 16)
            direct = kernels.score(spec, w, h)
            trick = score_via_trick(
                spec, float(w @ w), float(h @ h), float(w @ h))
            assert abs(direct - trick) < 1e-8

    def test_hpb_via_trick(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = rng.uniform(-0.6, 0.6, 4) * 0.5
            h = rng.uniform(-0.6, 0.6, 4) * 0.5
            direct = kernels.score(KernelSpec("hpb"), w, h)
            trick = score_via_trick(
                KernelSpec("hpb"), float(w @ w), float(h @ h), float(w @ h))
            assert abs(direct - trick) < 1e-8


class TestGrad:
    def test_lin_bilinear(self):
        w, h = vec(0.5, -2), vec(3, 7)
        g = kernels.grad(KernelSpec("lin"), w, h)
        assert np.array_equal(g.d_w, h)
        assert np.array_equal(g.d_h, w)

    def test_pow_p2_closed_form(self):
        g = kernels.grad(KernelSpec("pow", p=2), vec(3, 0), vec(0, 4))
        assert np.allclose(g.d_w, vec(-6, 8))
        assert np.allclose(g.d_h, vec(6, -8))

    def test_rbf_zero_gradient_at_coincidence(self):
        w = vec(1.0, 2.0)
        g = kernels.grad(KernelSpec("rbf", gamma=1.0), w, w.copy())
        assert np.all(g.d_w == 0)
        assert not g.singular

    def test_singularity_flag_for_small_p(self):
        w = vec(0.1, 0.2)
        for kind in ("log", "pow"):
            g = kernels.grad(KernelSpec(kind, p=1.0), w, w.copy())
            assert g.singular
            assert np.all(g.d_w == 0)
            # p = 2 is smooth at coincidence
            assert not kernels.grad(KernelSpec(kind, p=2.0), w, w.copy()).singular

    def test_hpb_zero_subgradient_at_coincidence(self):
        w = vec(0.3, 0.1)
        g = kernels.grad(KernelSpec("hpb"), w, w.copy())
        assert g.singular
        assert np.all(g.d_w == 0)


class TestProperties:
    @pytest.mark.parametrize("spec", [
        KernelSpec("lin"), KernelSpec("pol", p=2),
        KernelSpec("log"), KernelSpec("pow"), KernelSpec("rbf"),
        KernelSpec("wav"),
    ])
    def test_symmetry(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w, h = rng.uniform(-3, 3, 6), rng.uniform(-3, 3, 6)
            assert kernels.score(spec, w, h) == pytest.approx(
                kernels.score(spec, h, w), rel=1e-12, abs=1e-14)

    def test_hpb_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = rng.uniform(-0.4, 0.4, 6) * 0.5
            h = rng.uniform(-0.4, 0.4, 6) * 0.5
            assert kernels.score(KernelSpec("hpb"), w, h) == pytest.approx(
                kernels.score(KernelSpec("hpb"), h, w), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("spec", [
        KernelSpec("log"), KernelSpec("pow"), KernelSpec("rbf"),
        KernelSpec("wav"), KernelSpec("hpb"),
    ])
    def test_maximum_at_coincidence(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(100):
            if spec.kind == "hpb":
                w = rng.uniform(-0.4, 0.4, 4) * 0.5
                h = rng.uniform(-0.4, 0.4, 4) * 0.5
            else:
                w, h = rng.uniform(-5, 5, 4), rng.uniform(-5, 5, 4)
            assert kernels.score(spec, w, h) <= kernels.score(spec, w, w) + 1e-12

    def test_ssg_maximum_at_coincidence_equal_variances(self):
        rng = np.random.default_rng(8)
        spec = KernelSpec("ssg")
        for _ in range(100):
            mw, mh = rng.uniform(-5, 5, 4), rng.uniform(-5, 5, 4)
            lv = rng.normal()
            at_h = kernels.score(spec, mw, mh, lv, lv)
            at_w = kernels.score(spec, mw, mw.copy(), lv, lv)
            assert at_h <= at_w + 1e-12

    def test_tail_gradient_ordering_at_x10(self):
        x = 10.0
        _, d_rbf = kernels.radial_profile(KernelSpec("rbf"), x)
        _, d_wav = kernels.radial_profile(KernelSpec("wav"), x)
        _, d_log = kernels.radial_profile(KernelSpec("log", p=2), x)
        _, d_pow = kernels.radial_profile(KernelSpec("pow", p=2), x)
        assert abs(d_rbf) < 1e-3
        assert abs(d_wav) < 1e-3
        assert 1e-2 < abs(d_log) < 1.0
        assert abs(d_pow) == 1.0


class TestBatchLogits:
    def test_basis_vectors(self):
        W = np.array([[1.0, 0.0], [0.0, 1.0]])
        H = np.array([[1.0, 0.0]])
        L = kernels.forward_logits(KernelSpec("lin"), W, H)[0]
        assert np.array_equal(L, [[1.0, 0.0]])

    @pytest.mark.parametrize("spec,needs_gauss", [
        (KernelSpec("lin"), False),
        (KernelSpec("pol", p=2), False),
        (KernelSpec("log"), False),
        (KernelSpec("pow", p=2), False),
        (KernelSpec("pow", p=1.5), False),
        (KernelSpec("rbf"), False),
        (KernelSpec("wav"), False),
        (KernelSpec("ssg"), True),
        (KernelSpec("mog", num_gauss=2), True),
        (KernelSpec("mog", num_gauss=2, mog_log_of_sum=True), True),
    ])
    def test_matches_per_pair_score_oracle(self, spec, needs_gauss):
        rng = np.random.default_rng(11)
        B, V, d = 4, 50, 8
        W = rng.normal(size=(d, V))
        H = rng.normal(size=(B, d))
        if needs_gauss:
            shape = kernels.variance_shape(spec)
            wlv = rng.normal(size=(V,) + shape) * 0.3
            clv = rng.normal(size=shape) * 0.3
            L = kernels.forward_logits(spec, W, H, wlv, clv)[0]
            for b in range(B):
                for v in range(V):
                    expected = kernels.score(spec, W[:, v], H[b], wlv[v], clv)
                    assert abs(L[b, v] - expected) < 1e-10
        else:
            L = kernels.forward_logits(spec, W, H)[0]
            for b in range(B):
                for v in range(V):
                    assert abs(L[b, v] - kernels.score(spec, W[:, v], H[b])) < 1e-10

    def test_hpb_matches_per_pair(self):
        rng = np.random.default_rng(12)
        B, V, d = 3, 10, 4
        W = rng.normal(size=(d, V))
        W /= 4 * np.abs(W).sum(axis=0)
        H = rng.normal(size=(B, d))
        H /= 4 * np.abs(H).sum(axis=1, keepdims=True)
        L = kernels.forward_logits(KernelSpec("hpb"), W, H)[0]
        for b in range(B):
            for v in range(V):
                assert abs(L[b, v] - kernels.score(KernelSpec("hpb"), W[:, v], H[b])) < 1e-10

    def test_rbf_flushes_to_zero_without_error(self):
        W = np.zeros((2, 2))
        W[0, 1] = 20.0  # ||w - h||^2 = 800 for h = (-20, 0)
        H = np.array([[-20.0, 0.0]])
        L, cache = kernels.forward_logits(KernelSpec("rbf", gamma=1.0), W, H)
        assert L[0, 1] == 0.0
        assert np.all(np.isfinite(L))
        dW, dH, _, _ = kernels.backward_logits(KernelSpec("rbf", gamma=1.0), cache,
                                               np.array([[0.0, 1.0]]))
        assert not dW.any() and not dH.any()

    @pytest.mark.parametrize("kind", kernels.KINDS)
    def test_cache_holds_no_reference_to_the_logits(self, kind):
        rng = np.random.default_rng(13)
        spec = KernelSpec(kind)
        W = rng.normal(size=(4, 6)) * 0.1
        H = rng.normal(size=(3, 4)) * 0.1
        shape = kernels.variance_shape(spec)
        gauss = (np.zeros((6,) + shape), np.zeros(shape)) if shape is not None else ()
        L, cache = kernels.forward_logits(spec, W, H, *gauss)
        ref = weakref.ref(L)
        del L
        assert ref() is None, [sorted(tile) for tile in cache]

    def test_hpb_raises_outside_ball(self):
        W = np.array([[2.0, 0.0], [0.0, 0.2]])
        H = np.array([[0.1, 0.1]])
        with pytest.raises(HpbOutsideBall):
            kernels.forward_logits(KernelSpec("hpb"), W, H)

    def test_hpb_names_the_first_word_column_outside_the_ball(self):
        W = np.full((2, 6), 0.1)
        W[0, 3] = W[1, 5] = 2.0
        with pytest.raises(HpbOutsideBall) as e:
            kernels.forward_logits(KernelSpec("hpb"), W, np.array([[0.1, 0.1]]))
        assert str(e.value) == "word column 3 has norm >= 1"


class TestGradientAudit:
    @pytest.mark.parametrize("kind", ["ssg", "mog"])
    @pytest.mark.parametrize("key", ["x", "wlv", "clv"])
    def test_catches_a_scaled_vjp_output(self, monkeypatch, kind, key):
        # a 1% error in any output of the VJP that trains, or of the
        # closing step that makes the variance cotangents, must fail the audit
        entry = kernels.KERNELS[kind]

        def scaled(fn):
            def wrapped(*args):
                g = fn(*args)
                if key in g:
                    g[key] = 1.01 * g[key]
                return g
            return wrapped

        monkeypatch.setitem(kernels.KERNELS, kind, dataclasses.replace(
            entry, vjp=scaled(entry.vjp), close=scaled(entry.close)))
        assert gradcheck.check_kernel(kind, dims=(2, 8), trials=10)


class TestProjectToBall:
    def test_projects_only_offending_columns(self):
        W = np.array([[3.0, 0.1], [4.0, 0.0]])
        kernels.project_to_ball(W)
        assert np.linalg.norm(W[:, 0]) == pytest.approx(1 - 1e-5)
        assert W[0, 1] == 0.1

    def test_one_dense_pass_gives_the_bits_of_scaling_the_columns_over(self):
        limit = 1 - kernels.BALL_MARGIN
        rng = np.random.default_rng(7)
        W = rng.normal(size=(5, 40))
        W *= rng.uniform(0.2, 3.0, size=40) / np.sqrt(np.einsum("dv,dv->v", W, W))
        W[:, 3] = 0.0
        W[:, 4] = [limit, 0.0, 0.0, 0.0, 0.0]  # a norm of exactly the limit
        W[:, 5] = [-limit, 1e-3, 0.0, 0.0, 0.0]  # just over it
        norms = np.sqrt(np.einsum("dv,dv->v", W, W))
        over = norms > limit
        assert norms[4] == limit and over[5] and 0 < over.sum() < 38
        gathered = W.copy()
        gathered[:, over] *= limit / norms[over]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.project_to_ball(W)
        assert np.array_equal(W, gathered)
        assert not W[:, 3].any()


class TestWorkspace:
    def test_a_buffer_grows_only_for_a_larger_request(self):
        ws = kernels.Workspace()
        big = ws.take("a", (4, 5))
        small = ws.take("a", (3, 5))
        assert small.shape == (3, 5) and np.shares_memory(big, small)
        bigger = ws.take("a", (5, 5))
        assert not np.shares_memory(bigger, big)
        assert np.shares_memory(ws.take("a", (2,)), bigger)
        assert not np.shares_memory(ws.take("b", (5, 5)), bigger)
        assert ws.take("c", ()).shape == ()

    @pytest.mark.parametrize("shape", [(64, 7975), (7, 11), (3, 2), (5, 7, 2, 2), (1, 9),
                                       (0, 4), (100, 3)])
    def test_numpy_sums_axis_0_of_a_c_contiguous_array_row_by_row(self, shape):
        # the per-word sums of a tiled backward pass add rows in batch
        # order and rely on this for the bits of the whole-batch sum
        rng = np.random.default_rng(62)
        a = rng.normal(size=shape) * np.exp(rng.uniform(-30.0, 30.0, size=shape))
        total = np.zeros(shape[1:]) if not len(a) else a[0].copy()
        for row in a[1:]:
            total += row
        assert a.sum(axis=0).tobytes() == total.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_x_to_the_power_0_is_1_for_every_x(self, n):
        # at p = 2 pow's and log's VJP reads no x: it takes -p/2 x^0 as the
        # constant -1.0, which has the bits of the power for every float64
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, -tiny, 1e-310, 1e308, -1e308,
                            np.inf, -np.inf, np.nan, -np.nan, 2.5])
        x = np.resize(special, n * len(special))
        got = np.power(x, 0.0, out=np.empty_like(x))
        assert got.tobytes() == np.ones_like(x).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_x_to_the_power_1_is_x_for_every_squared_distance(self, n):
        # at p = 2 pow's and log's score take x^(p/2) = x ** 1.0 as x itself,
        # which has the bits of the power for every value x can hold; a NaN
        # stays a NaN
        tiny = np.finfo(np.float64).smallest_subnormal
        special = np.array([0.0, tiny, 2 * tiny, 1e-310, 1e-300, 0.5, 1.0, 2.5, 1e308,
                            np.finfo(np.float64).max, np.inf])
        x = np.resize(special, n * len(special))
        got = np.power(x, 1.0, out=np.empty_like(x))
        assert got.tobytes() == x.tobytes()
        assert np.isnan(np.power(np.array([np.nan, -np.nan]), 1.0)).all()

    @pytest.mark.parametrize("kind", ["pow", "log"])
    def test_the_score_at_p_2_takes_no_power(self, monkeypatch, kind):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([[0.0, tiny, 1e-310, 0.5, 2.5], [1.0, 7.0, 1e308, np.inf, 3.0]])
        t = np.power(x, 1.0)
        expected = -t if kind == "pow" else -np.log1p(t)

        def no_power(*args, **kwargs):
            raise AssertionError("np.power called at p = 2")

        monkeypatch.setattr(np, "power", no_power)
        st = {"d": None, "x": x.copy(), "out": np.empty_like(x)}
        got = kernels.KERNELS[kind].score(KernelSpec(kind), st)
        assert got.tobytes() == expected.tobytes()
        if kind == "log":  # the VJP reads the kept power, not x
            assert st["power"].tobytes() == t.tobytes()

    def test_a_mapping_too_large_to_represent_is_a_memory_error(self):
        # 8 x 2**62 bytes overflows the mapping's size before any call to
        # the system, so nothing is allocated
        with pytest.raises(MemoryError, match=r"^cannot map 36,893,488,147,419,103,232 bytes: "):
            kernels.mapped(1 << 62)

    def test_a_copy_is_empty(self):
        ws = kernels.Workspace()
        ws.take("a", (3,))
        assert copy.deepcopy(ws)._buffers == {}

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_in_lanes_keeps_k_order_and_raises_the_lowest_k_last(self, monkeypatch,
                                                                 lanes):
        monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, lanes))
        ws = kernels.Workspace()
        assert kernels.in_lanes(ws, 5, 0, lambda k, scratch: k * k) == [0, 1, 4, 9, 16]
        done = []

        def body(k, scratch):
            if k > 0:
                time.sleep(0.05 if k < 3 else 0.0)  # k = 3 fails first
            if k in (1, 3):
                raise ValueError(k)
            done.append(k)

        with pytest.raises(ValueError) as info:
            kernels.in_lanes(ws, 4, 0, body)
        assert info.value.args == (1,)
        # the serial loop stops at k = 1; lanes finish every other call first
        assert sorted(done) == ([0] if lanes == 1 else [0, 2])

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_no_scratch_is_used_by_two_threads_in_one_call(self, monkeypatch, lanes):
        monkeypatch.setattr(kernels, "lane_count", lambda K, size: min(K, lanes))
        ws = kernels.Workspace()
        for _ in range(3):
            users, arrived = {}, threading.Barrier(lanes, timeout=10)

            def body(k, scratch):
                thread = threading.get_ident()
                if not any(thread in threads for threads in users.values()):
                    users.setdefault(id(scratch), set()).add(thread)
                    arrived.wait()  # a lane's first call waits for every lane's
                users[id(scratch)].add(thread)

            kernels.in_lanes(ws, 4 * lanes, 0, body)
            assert len(users) == lanes
            assert all(len(threads) == 1 for threads in users.values()), users


# ---------------------------------------------------------------------------
# Batched forward/backward against the scalar score/grad
# ---------------------------------------------------------------------------

PROPERTY_SPECS = [
    KernelSpec("lin"),
    KernelSpec("log", p=1.5), KernelSpec("log", p=3.0),
    KernelSpec("pow", p=1.2), KernelSpec("pow", p=2.0),
    KernelSpec("pol", p=3, alpha=0.5, c=0.3),
    KernelSpec("rbf"), KernelSpec("rbf", gamma=5.0),
    KernelSpec("ssg"),
    KernelSpec("mog", num_gauss=2),
    KernelSpec("mog", num_gauss=3, mog_log_of_sum=True),
    KernelSpec("hpb"),
    KernelSpec("wav", a=1.3, b=0.7),
]


def property_inputs(spec, rng, B, V, d, edge):
    """W (d x V), H (B x d) and the Gaussian log-variances, if any. ``edge``
    puts the hpb words or the hpb contexts near the ball edge, spreads the
    others far enough for rbf to underflow, and sets log-variances to +-5."""
    W = rng.normal(size=(d, V))
    H = rng.normal(size=(B, d))
    if spec.kind == "hpb":
        # The two sides get norms from disjoint ranges, so every pair is at
        # least 0.09 apart: a near-coincident pair leaves the norm
        # expansion's x with too few correct digits for the comparison.
        near, far = ((0.99, 0.999), (0.05, 0.9)) if edge else ((0.5, 0.9), (0.05, 0.4))
        if rng.random() < 0.5:
            near, far = far, near
        W *= rng.uniform(*near, V) / np.linalg.norm(W, axis=0)
        H *= rng.uniform(*far, (B, 1)) / np.linalg.norm(H, axis=1, keepdims=True)
    elif edge:
        W *= 10.0
    shape = kernels.variance_shape(spec)
    if shape is None:
        return W, H, ()
    if edge:
        draw = lambda size: rng.choice([-5.0, 5.0], size)
    else:
        draw = lambda size: rng.normal(0.0, 0.5, size)
    return W, H, (draw((V,) + shape), draw(shape))


def scalar_pair(spec, W, H, gauss, b, v):
    """(score, d/dW[:, v], d/dH[b], d/d word log-vars of v, d/d component
    log-vars) of one pair through the scalar API."""
    log_vars = (gauss[0][v], gauss[1]) if gauss else ()
    g = kernels.grad(spec, W[:, v], H[b], *log_vars)
    return (kernels.score(spec, W[:, v], H[b], *log_vars),
            g.d_w, g.d_h, g.d_w_log_var, g.d_h_log_var)


def close(got, terms, rtol=1e-8):
    """got agrees with the sum of terms up to rtol of the terms' magnitude."""
    terms = np.asarray(terms)
    want = terms.sum(axis=0)
    return np.all(np.abs(got - want) <= rtol * np.abs(terms).sum(axis=0) + 1e-12)


class TestBatchedAgainstScalar:
    @pytest.mark.parametrize("spec", PROPERTY_SPECS,
                             ids=lambda s: f"{s.kind}-p{s.p:g}-g{s.gamma}-lse{s.mog_log_of_sum:d}")
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), B=st.integers(1, 4),
           V=st.integers(2, 6), d=st.integers(1, 5), edge=st.booleans())
    def test_rows_match_scalar_score_and_grad(self, spec, seed, B, V, d, edge):
        rng = np.random.default_rng(seed)
        W, H, gauss = property_inputs(spec, rng, B, V, d, edge)
        L, cache = kernels.forward_logits(spec, W, H, *gauss)
        dL = rng.normal(size=L.shape)
        # backward_logits may overwrite its dL, which the checks below read
        dW, dH, dwlv, dclv = kernels.backward_logits(spec, cache, dL.copy())
        assert np.all(np.isfinite(dW)) and np.all(np.isfinite(dH))
        pairs = {(b, v): scalar_pair(spec, W, H, gauss, b, v)
                 for b in range(B) for v in range(V)}
        for b in range(B):
            scores = [pairs[b, v][0] for v in range(V)]
            assert np.allclose(L[b], scores, rtol=1e-9, atol=1e-9), (b, L[b], scores)
            assert close(dH[b], [dL[b, v] * pairs[b, v][2] for v in range(V)]), b
        for v in range(V):
            assert close(dW[:, v], [dL[b, v] * pairs[b, v][1] for b in range(B)]), v
        if gauss:
            for v in range(V):
                assert close(dwlv[v], [dL[b, v] * pairs[b, v][3] for b in range(B)]), v
            assert close(dclv, [dL[b, v] * pairs[b, v][4] for b, v in pairs])

    @pytest.mark.parametrize("spec", [KernelSpec("pow", p=1.0),
                                      KernelSpec("log", p=1.5), KernelSpec("hpb")],
                             ids=lambda s: s.kind)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), B=st.integers(1, 4),
           V=st.integers(2, 6), d=st.integers(1, 5))
    def test_zero_subgradient_where_context_equals_word(self, spec, seed, B, V, d):
        rng = np.random.default_rng(seed)
        # multiples of 1/8 keep every product and sum exact, so the norm
        # expansion also gives x == 0 at the coincident pair
        W = rng.integers(-2, 3, size=(d, V)) / 8.0
        H = rng.integers(-2, 3, size=(B, d)) / 8.0
        b, v = int(rng.integers(B)), int(rng.integers(V))
        H[b] = W[:, v]
        assert kernels.grad(spec, W[:, v], H[b]).singular
        _, cache = kernels.forward_logits(spec, W, H)
        dL = np.zeros((B, V))
        dL[b, v] = 1.0
        dW, dH, _, _ = kernels.backward_logits(spec, cache, dL)
        assert not dW.any() and not dH.any()


def test_wav_keeping_pass_gives_the_bits_of_fresh_arrays():
    # the score keeps cos(x / a) and exp(-x / b) in the workspace, and the
    # VJP reads them there
    spec = KernelSpec("wav", a=0.7, b=1.9)
    rng = np.random.default_rng(60)
    ws, lane = kernels.Workspace(), kernels.Workspace()
    for B in (7, 5):  # the shorter batch reuses the longer one's buffers
        W, H = rng.normal(size=(4, 9)), rng.normal(size=(B, 4))
        dL = rng.normal(size=(B, 9))
        kept_L, kept = kernels.forward_logits(spec, W, H, ws=ws, k=0, scratch=lane)
        fresh_L, fresh = kernels.forward_logits(spec, W, H)
        x = fresh[0]["x"]
        # the parent formula, from fresh arrays
        assert np.array_equal(fresh_L, np.cos(x / 0.7) * np.exp(-x / 1.9))
        assert kept_L.tobytes() == fresh_L.tobytes()
        assert np.shares_memory(kept[0]["cos"], ws.take(("cos", 0), (B, 9)))
        assert np.shares_memory(kept[0]["exp"], ws.take(("exp", 0), (B, 9)))
        got = kernels.backward_logits(spec, kept, dL.copy(), lane)
        want = kernels.backward_logits(spec, fresh, dL.copy())
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("spec, name, score, dphi", [
    (KernelSpec("rbf", gamma=0.8), "exp",
     lambda x: np.exp(-0.8 * x),
     lambda x: np.multiply(-0.8, np.exp(np.multiply(-0.8, x)))),
    (KernelSpec("log", p=1.5), "power",
     lambda x: -np.log1p(np.power(x, 0.75)),
     lambda x: np.divide(np.multiply(-0.75, np.power(x, 0.75 - 1.0)),
                         np.power(x, 0.75) + 1.0)),
], ids=["rbf", "log"])
def test_radial_keeping_pass_gives_the_bits_of_fresh_arrays(spec, name, score, dphi):
    # rbf's score keeps exp(-gamma x) and log's x^(p/2) in the workspace,
    # and the VJP reads it there instead of computing it again
    rng = np.random.default_rng(61)
    ws, lane = kernels.Workspace(), kernels.Workspace()
    for B in (7, 5):  # the shorter batch reuses the longer one's buffers
        W, H = rng.normal(size=(4, 9)), rng.normal(size=(B, 4))
        dL = rng.normal(size=(B, 9))
        kept_L, kept = kernels.forward_logits(spec, W, H, ws=ws, k=0, scratch=lane)
        fresh_L, fresh = kernels.forward_logits(spec, W, H)
        x = fresh[0]["x"]
        # the parent formulas, from fresh arrays
        assert np.array_equal(fresh_L, score(x))
        dx = kernels.KERNELS[spec.kind].vjp(spec, fresh[0], dL.copy(), None)["x"]
        assert dx.tobytes() == (dL * dphi(x)).tobytes()
        assert kept_L.tobytes() == fresh_L.tobytes()
        assert np.shares_memory(kept[0][name], ws.take((name, 0), (B, 9)))
        got = kernels.backward_logits(spec, kept, dL.copy(), lane)
        want = kernels.backward_logits(spec, fresh, dL.copy())
        for g, w in zip(got[:2], want[:2]):
            assert g.tobytes() == w.tobytes()
