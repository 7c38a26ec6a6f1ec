"""Contrastive loss identities and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsum.autodiff import Tensor
from tagsum.errors import ValidationError
from tagsum.gradcheck import central_difference
from tagsum.losses import (
    alignment_uniformity,
    contrastive_loss,
    contrastive_loss_tensor,
    supervised_contrastive_loss_tensor,
)

from reference import (
    composed_contrastive_loss,
    composed_supervised_contrastive_loss,
    subtracted_mask_supervised_loss,
)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


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
            reference = composed_contrastive_loss(ht, ut, temperature)
            reference.backward()
            assert value == reference.item()
            assert np.max(np.abs(dh - ht.grad)) <= 1e-12
            assert np.max(np.abs(du - ut.grad)) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            contrastive_loss(np.zeros((0, 4)), np.zeros((0, 4)), 0.1)

    def test_nonpositive_temperature_rejected(self):
        h = unit_rows(np.random.default_rng(0).normal(size=(2, 3)))
        for temperature in (0.0, float("nan")):
            with pytest.raises(ValidationError, match="temperature must be positive"):
                contrastive_loss(h, h, temperature)

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

        def value():
            return contrastive_loss_tensor(Tensor(h), Tensor(u), 0.2).item()

        for target, grad in ((h, dh), (u, du)):
            fd = central_difference(value, target, 1e-6)
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

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(3)
        z = Tensor(unit_rows(rng.normal(size=(4, 5))), requires_grad=True)
        loss = supervised_contrastive_loss_tensor(
            z, np.array([0, 1, 1, 2]), unit_rows(rng.normal(size=(3, 5))), 0.1)
        assert loss._parents == (z,)

    def test_nonpositive_temperature_rejected(self):
        label_emb = unit_rows(np.random.default_rng(0).normal(size=(2, 4)))
        for temperature in (0.0, float("nan")):
            with pytest.raises(ValidationError, match="temperature must be positive"):
                supervised_contrastive_loss_tensor(Tensor(label_emb), np.array([0, 1]),
                                                   label_emb, temperature)

    @pytest.mark.parametrize("labels, width, match", [
        (np.array([0, 1]), 3, "one width"),
        (np.array([0.0, 1.0]), 4, "integers, got float64"),
        (np.array([[0], [1]]), 4, r"of shape \(2, 1\)"),
    ])
    def test_malformed_label_inputs_rejected(self, labels, width, match):
        label_emb = unit_rows(np.random.default_rng(0).normal(size=(2, width)))
        z = Tensor(unit_rows(np.random.default_rng(1).normal(size=(2, 4))))
        with pytest.raises(ValidationError, match=match):
            supervised_contrastive_loss_tensor(z, labels, label_emb, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 16), num_classes=st.integers(1, 4),
           temperature=st.sampled_from([0.05, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_one_op_matches_the_composed_loss(self, data, batch, num_classes, temperature,
                                              seed):
        # Labels drawn freely give anchors with and without a same-class partner.
        labels = np.array(data.draw(st.lists(st.integers(0, num_classes - 1),
                                             min_size=batch, max_size=batch)))
        rng = np.random.default_rng(seed)
        z = unit_rows(rng.normal(size=(batch, 6)))
        label_emb = unit_rows(rng.normal(size=(num_classes, 6)))
        fused = Tensor(z, requires_grad=True)
        loss = supervised_contrastive_loss_tensor(fused, labels, label_emb, temperature)
        loss.backward()
        composed = Tensor(z, requires_grad=True)
        reference = composed_supervised_contrastive_loss(composed, labels, label_emb,
                                                         temperature)
        reference.backward()
        assert loss.item() == reference.item()
        assert np.max(np.abs(fused.grad - composed.grad)) <= 1e-12

    def test_self_mask_holds_at_tiny_temperatures(self):
        # Four unit anchors, two of each class. The loss scales as 1/temperature;
        # a finite self mask of -1e9 gave 8.31e9 at 1e-10, where each
        # anchor's own similarity of 1e10 outgrew it.
        rng = np.random.default_rng(0)
        z, label_emb = unit_rows(rng.normal(size=(4, 6))), unit_rows(rng.normal(size=(2, 6)))
        labels = np.array([0, 0, 1, 1])
        losses = {}
        for temperature in (1e-3, 1e-8, 1e-10):
            anchors = Tensor(z, requires_grad=True)
            loss = supervised_contrastive_loss_tensor(anchors, labels, label_emb, temperature)
            loss.backward()
            assert np.all(np.isfinite(anchors.grad))
            losses[temperature] = loss.item()
        assert losses[1e-10] == pytest.approx(4.2371936526e9, rel=1e-10)
        assert losses[1e-3] == pytest.approx(423.71936526, rel=1e-10)
        assert losses[1e-10] == pytest.approx(1e2 * losses[1e-8], rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), batch=st.integers(1, 16), num_classes=st.integers(1, 4),
           temperature=st.sampled_from([0.05, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_ordinary_temperatures_keep_the_subtracted_mask_bits(
            self, data, batch, num_classes, temperature, seed):
        labels = np.array(data.draw(st.lists(st.integers(0, num_classes - 1),
                                             min_size=batch, max_size=batch)))
        rng = np.random.default_rng(seed)
        z = unit_rows(rng.normal(size=(batch, 6)))
        label_emb = unit_rows(rng.normal(size=(num_classes, 6)))
        anchors = Tensor(z, requires_grad=True)
        loss = supervised_contrastive_loss_tensor(anchors, labels, label_emb, temperature)
        loss.backward()
        want_loss, want_grad = subtracted_mask_supervised_loss(z, labels, label_emb,
                                                               temperature)
        assert loss.item() == want_loss
        assert anchors.grad.tobytes() == want_grad.tobytes()
