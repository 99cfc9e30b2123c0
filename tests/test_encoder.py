import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksoftmax import encoder, gradcheck
from ksoftmax.errors import TokenOutOfRange
from ksoftmax.kernels import KernelSpec
from ksoftmax.training import TrainConfig


def make(V=6, n=2, d=4, d_e=5, seed=0):
    return encoder.init_encoder_params(V, n, d, d_e, np.random.default_rng(seed))


class TestEncode:
    def test_zero_parameters_give_zero_contexts(self):
        params = make()
        params.E[:] = 0.0
        params.F[:] = 0.0
        params.bias[:] = 0.0
        H, _ = encoder.encode(params, np.array([[0, 1], [2, 3]]))
        assert np.array_equal(H, np.zeros((2, params.d)))

    def test_outputs_bounded(self):
        params = make()
        params.F *= 100
        H, _ = encoder.encode(params, np.array([[1, 2], [3, 4]]))
        assert np.all(np.abs(H) <= 1.0)

    def test_shapes(self):
        params = make(V=6, n=2, d=4, d_e=5)
        windows = np.array([[0, 1], [2, 3], [4, 5]])
        H, cache = encoder.encode(params, windows)
        assert H.shape == (3, 4)
        assert cache.X.shape == (3, 2 * 5)

    def test_lookup_matches_manual_concatenation(self):
        params = make()
        windows = np.array([[2, 5]])
        _, cache = encoder.encode(params, windows)
        assert np.array_equal(cache.X[0], np.concatenate([params.E[2],
                                                          params.E[5]]))

    def test_token_out_of_range(self):
        params = make(V=6)
        with pytest.raises(TokenOutOfRange):
            encoder.encode(params, np.array([[0, 6]]))
        with pytest.raises(TokenOutOfRange):
            encoder.encode(params, np.array([[-1, 0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        params = make(seed=seed)
        windows = rng.integers(0, 6, size=(4, 2))
        H1, _ = encoder.encode(params, windows)
        H2, _ = encoder.encode(params, windows)
        assert np.array_equal(H1, H2)


class TestEncodeBackward:
    def test_gradients_pass_finite_difference_through_full_pipeline(self):
        # check_pipeline differentiates the loss with respect to E, F and
        # bias alongside the output-layer tensors
        cfg = TrainConfig(components=(KernelSpec("lin"),),
                          n=3, d=3, d_e=4, seed=1)
        assert not gradcheck.check_pipeline(cfg, V=5, B=2, seed=2)

    def test_embedding_gradient_accumulates_repeated_tokens(self):
        params = make(V=4, n=2, d=3, d_e=2)
        windows = np.array([[1, 1]])  # same token twice in one window
        H, cache = encoder.encode(params, windows)
        dH = np.ones_like(H)
        grads = encoder.encode_backward(params, cache, dH)
        dX = (dH * (1 - H * H)) @ params.F.T
        expected_row = dX[0, :2] + dX[0, 2:]
        assert np.allclose(grads.E[1], expected_row, atol=1e-14)
        assert np.allclose(grads.E[0], 0.0)
