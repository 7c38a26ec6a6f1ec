"""Reverse-mode engine: every tape op against central finite differences,
the package's and the generic ops of the composed-op oracle in ``reference``."""

import numpy as np
import pytest

import tagsum.autodiff as ad
from tagsum.autodiff import Tensor
from tagsum.errors import ValidationError
from tagsum.gradcheck import central_difference

from reference import add, exp, log, logsumexp, mul, sub, tmean, transpose, tsum

STEP = 1e-6


def check(f_tensor, shapes, seed=0):
    """Compare analytic and numeric gradients of a scalar-valued composition."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    f_tensor(leaves).backward()
    for leaf, array in zip(leaves, arrays):
        numeric = central_difference(lambda: f_tensor([Tensor(a) for a in arrays]).item(),
                                     array, STEP)
        np.testing.assert_allclose(leaf.grad, numeric, rtol=1e-5, atol=1e-7)


class TestElementwise:
    def test_add_broadcast(self):
        check(lambda t: tsum(mul(add(t[0], t[1]), add(t[0], t[1]))),
              [(3, 4), (4,)])

    def test_sub_mul(self):
        check(lambda t: tsum(mul(sub(mul(t[0], t[1]), t[0]), t[2])),
              [(2, 3), (2, 3), (1, 3)], seed=3)

    def test_exp_log(self):
        check(lambda t: tsum(log(add(exp(t[0]), ad.as_tensor(2.0)))),
              [(4, 2)])

    def test_gelu(self):
        check(lambda t: tsum(ad.gelu(t[0])), [(5, 5)], seed=1)

    def test_gelu_cube_by_multiplication_matches_pow(self):
        # x * x * x and x ** 3 differ in the last bit only. The output is
        # bounded relative to |x|, not to itself: near x = -3, 1 + tanh
        # cancels and a last-bit change in the tanh argument moves the tiny
        # output by up to ~4e-14 of its own size.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-6, 3, 100_000)
        cube = x ** 3
        assert np.max(np.abs(x * x * x - cube) / np.abs(cube)) <= 1e-15
        reference = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * cube)))
        assert np.max(np.abs(ad.gelu(x).data - reference) / np.abs(x)) <= 1e-15


class TestMatmulShapes:
    def test_2d(self):
        check(lambda t: tsum(ad.matmul(t[0], t[1])), [(3, 4), (4, 2)])

    def test_batched(self):
        check(lambda t: tsum(ad.matmul(t[0], t[1])), [(2, 3, 4), (2, 4, 5)], seed=2)

    def test_rejects_vectors(self):
        with pytest.raises(ValidationError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        check(lambda t: tsum(mul(tsum(t[0], axis=1, keepdims=True), t[0])),
              [(3, 4)])

    def test_mean_axis(self):
        check(lambda t: tsum(mul(tmean(t[0], axis=0, keepdims=True), t[0])),
              [(4, 3)])

    def test_reshape_transpose_concat(self):
        def f(t):
            a = ad.reshape(t[0], (2, 6))
            b = transpose(t[1], (1, 0))
            return tsum(mul(ad.concat([a, b], axis=0), ad.concat([a, b], axis=0)))
        check(f, [(3, 4), (6, 2)], seed=5)


class TestSoftmaxFamily:
    def test_softmax(self):
        check(lambda t: tsum(mul(ad.softmax(t[0]), Tensor(np.arange(12.).reshape(3, 4)))),
              [(3, 4)], seed=7)

    def test_logsumexp(self):
        check(lambda t: tsum(logsumexp(t[0], axis=1)), [(4, 5)], seed=8)

    def test_logsumexp_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(3, 4)) * 10
        ours = logsumexp(Tensor(x), axis=1).data
        ref = np.log(np.exp(x - x.max(1, keepdims=True)).sum(1)) + x.max(1)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)


class TestNorms:
    def test_layer_norm(self):
        check(lambda t: tsum(mul(ad.layer_norm(t[0], t[1], t[2]), t[0])),
              [(3, 6), (6,), (6,)], seed=9)


class TestEngine:
    def test_backward_without_forward_errors(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValidationError):
            leaf.backward()

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = tsum(mul(x, x))  # x used twice: dy/dx = 2x = 4
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = mul(x, ad.as_tensor(2.0))
        b = mul(x, ad.as_tensor(5.0))
        out = tsum(add(a, b))
        out.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_constants_get_no_grad(self):
        c = Tensor(np.ones(2))
        x = Tensor(np.ones(2), requires_grad=True)
        tsum(mul(c, x)).backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [1.0, 1.0])


class TestNoGrad:
    def test_records_no_parents(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = tsum(mul(x, x))
        assert y._parents == () and y._backward is None
        assert y.item() == 3.0
        with pytest.raises(ValidationError):
            y.backward()
        assert np.all(x.grad == 0.0)

    def test_nests_and_restores(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                inner = mul(x, x)
            outer = mul(x, x)
        assert inner._parents == () and outer._parents == ()
        tsum(mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_restored_after_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        y = mul(x, x)
        assert y._parents == (x, x)
        tsum(y).backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])
