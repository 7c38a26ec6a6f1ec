"""Contrastive loss identities and diagnostics."""

import math

import numpy as np
import pytest

import tagsum.autodiff as ad
from tagsum.autodiff import Tensor
from tagsum.errors import ValidationError
from tagsum.losses import (
    alignment_uniformity,
    contrastive_loss,
    contrastive_loss_tensor,
    supervised_contrastive_loss_tensor,
)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def composed_loss(h, u, temperature):
    """The contrastive loss built from elementwise tape ops, as it was
    before it became one op with a closed-form backward."""
    batch = h.data.shape[0]
    h_sq = ad.tsum(ad.mul(h, h), axis=1, keepdims=True)
    u_sq = ad.reshape(ad.tsum(ad.mul(u, u), axis=1, keepdims=True), (1, batch))
    dists = ad.sub(ad.add(h_sq, u_sq), ad.mul(h @ ad.transpose(u, (1, 0)), ad.as_tensor(2.0)))
    sims = ad.mul(dists, ad.as_tensor(-1.0 / temperature))
    diag = ad.tsum(ad.mul(sims, Tensor(np.eye(batch))), axis=1)
    rows = ad.tmean(ad.sub(ad.logsumexp(sims, axis=1), diag))
    cols = ad.tmean(ad.sub(ad.logsumexp(ad.transpose(sims, (1, 0)), axis=1), diag))
    return ad.mul(ad.add(rows, cols), ad.as_tensor(0.5))


class TestContrastiveLoss:
    def test_single_pair_loss_zero(self):
        h = np.array([[1.0, 0.0]])
        value, _, _ = contrastive_loss(h, h.copy(), temperature=0.5)
        assert abs(value) < 1e-12

    def test_two_orthonormal_matched_rows(self):
        # Hand evaluation: diagonal distance 0, off-diagonal distance 2,
        # per-row cross entropy ln(1 + e^-2).
        h = np.eye(2)
        value, _, _ = contrastive_loss(h, h.copy(), temperature=1.0)
        assert abs(value - math.log(1 + math.exp(-2))) < 1e-12

    def test_wrong_permutation_increases_loss(self):
        # For a batch of matched pairs with distinct rows, the diagonal
        # maximizes total pair similarity, so any wrong permutation strictly
        # increases the cross-entropy.
        rng = np.random.default_rng(0)
        for trial in range(100):
            batch = int(rng.integers(2, 7))
            dim = int(rng.integers(3, 9))
            h = unit_rows(rng.normal(size=(batch, dim)))
            u = unit_rows(h + 0.05 * rng.normal(size=(batch, dim)))
            matched, _, _ = contrastive_loss(h, u, temperature=0.2)
            perm = rng.permutation(batch)
            while np.all(perm == np.arange(batch)):
                perm = rng.permutation(batch)
            shuffled, _, _ = contrastive_loss(h, u[perm], temperature=0.2)
            assert shuffled > matched

    def test_one_op_matches_the_composed_loss(self):
        rng = np.random.default_rng(5)
        for batch, dim, temperature in ((1, 3, 0.1), (3, 5, 0.1), (8, 24, 0.07), (16, 24, 1.0)):
            h = unit_rows(rng.normal(size=(batch, dim)))
            u = unit_rows(rng.normal(size=(batch, dim)))
            value, dh, du = contrastive_loss(h, u, temperature)
            ht, ut = Tensor(h, requires_grad=True), Tensor(u, requires_grad=True)
            reference = composed_loss(ht, ut, temperature)
            reference.backward()
            assert value == reference.item()
            assert np.max(np.abs(dh - ht.grad)) <= 1e-12
            assert np.max(np.abs(du - ut.grad)) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            contrastive_loss(np.zeros((0, 4)), np.zeros((0, 4)), 0.1)

    def test_nonpositive_temperature_rejected(self):
        h = unit_rows(np.random.default_rng(0).normal(size=(2, 3)))
        with pytest.raises(ValidationError):
            contrastive_loss(h, h, 0.0)

    def test_distance_cosine_equivalence(self):
        # On unit rows ||a-b||^2 = 2 - 2<a,b> to machine precision, so both
        # similarity forms rank candidates identically.
        rng = np.random.default_rng(1)
        h = unit_rows(rng.normal(size=(6, 8)))
        u = unit_rows(rng.normal(size=(6, 8)))
        d2 = ((h[:, None, :] - u[None, :, :]) ** 2).sum(-1)
        cos = h @ u.T
        np.testing.assert_allclose(d2, 2 - 2 * cos, atol=1e-12)
        assert np.array_equal(np.argmin(d2, axis=1), np.argmax(cos, axis=1))

    def test_rotation_invariance(self):
        # A common orthogonal rotation preserves all pairwise distances.
        rng = np.random.default_rng(2)
        h = unit_rows(rng.normal(size=(5, 7)))
        u = unit_rows(rng.normal(size=(5, 7)))
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        base, _, _ = contrastive_loss(h, u, 0.3)
        rotated, _, _ = contrastive_loss(h @ q, u @ q, 0.3)
        assert abs(base - rotated) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = unit_rows(rng.normal(size=(3, 4)))
        u = unit_rows(rng.normal(size=(3, 4)))
        _, dh, du = contrastive_loss(h, u, 0.2)

        def value(hh, uu):
            return contrastive_loss_tensor(Tensor(hh), Tensor(uu), 0.2).item()

        step = 1e-6
        for (target, grad) in ((h, dh), (u, du)):
            fd = np.zeros_like(target)
            for i in range(target.shape[0]):
                for j in range(target.shape[1]):
                    plus = target.copy(); plus[i, j] += step
                    minus = target.copy(); minus[i, j] -= step
                    if target is h:
                        fd[i, j] = (value(plus, u) - value(minus, u)) / (2 * step)
                    else:
                        fd[i, j] = (value(h, plus) - value(h, minus)) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)


class TestAlignmentUniformity:
    def test_identical_batches_align_perfectly(self):
        h = unit_rows(np.random.default_rng(0).normal(size=(4, 6)))
        alignment, _ = alignment_uniformity(h, h.copy())
        assert alignment == 0.0

    def test_two_orthonormal_closed_form(self):
        h = np.eye(2)
        alignment, uniformity = alignment_uniformity(h, h.copy())
        assert alignment == 0.0
        expected = math.log((1 + math.exp(-2)) / 2)
        assert abs(uniformity - expected) < 1e-12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        h = unit_rows(rng.normal(size=(3, 5)))
        u = unit_rows(rng.normal(size=(3, 5)))
        a1, u1 = alignment_uniformity(h, u)
        a2, u2 = alignment_uniformity(np.vstack([h, h]), np.vstack([u, u]))
        assert abs(a1 - a2) < 1e-12
        assert abs(u1 - u2) < 1e-12


class TestSupervisedContrastive:
    def test_same_class_preferred(self):
        # Anchors exactly on their class sentences: loss should be far below
        # a label-scrambled configuration.
        labels = np.array([0, 0, 1, 1])
        label_emb = unit_rows(np.random.default_rng(0).normal(size=(2, 6)))
        z = Tensor(label_emb[labels])
        good = supervised_contrastive_loss_tensor(z, labels, label_emb, 0.1).item()
        bad = supervised_contrastive_loss_tensor(z, 1 - labels, label_emb, 0.1).item()
        assert good < bad

    def test_label_out_of_range(self):
        label_emb = unit_rows(np.random.default_rng(0).normal(size=(2, 4)))
        z = Tensor(unit_rows(np.random.default_rng(1).normal(size=(2, 4))))
        with pytest.raises(ValidationError):
            supervised_contrastive_loss_tensor(z, np.array([0, 5]), label_emb, 0.1)

    def test_differentiable_wrt_anchors(self):
        rng = np.random.default_rng(2)
        label_emb = unit_rows(rng.normal(size=(3, 5)))
        z = Tensor(unit_rows(rng.normal(size=(4, 5))), requires_grad=True)
        loss = supervised_contrastive_loss_tensor(
            z, np.array([0, 1, 2, 0]), label_emb, 0.1)
        loss.backward()
        assert np.any(z.grad != 0)
