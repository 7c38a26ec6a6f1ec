"""Contrastive objectives over paired graph/summary embeddings.

The in-batch contrastive loss scores pairs by negative squared distance over
temperature; on unit-norm rows that equals (2 cos - 2) / temperature, so the
distance and cosine formulations pick the same positives and produce the
same gradients up to an additive constant. The uniformity diagnostic uses
the negative-exponent kernel e^{-||u - h||^2}: the positive-exponent variant
diverges and would attract negatives instead of repelling them.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ValidationError


def _check_batch(h: np.ndarray, u: np.ndarray) -> int:
    if h.ndim != 2 or u.ndim != 2:
        raise ValidationError("expected 2-D embedding batches")
    if h.shape != u.shape:
        raise ValidationError(f"batch shapes differ: {h.shape} vs {u.shape}")
    if h.shape[0] == 0:
        raise ValidationError("empty batch")
    return h.shape[0]


def _logsumexp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise logsumexp (B,) and softmax (B, B) of ``x``, max-shifted."""
    shift = x.max(axis=1, keepdims=True)
    z = np.exp(x - shift)
    total = z.sum(axis=1, keepdims=True)
    return (np.log(total) + shift)[:, 0], z / total


def contrastive_loss_tensor(h: Tensor, u: Tensor, temperature: float) -> Tensor:
    """Symmetric cross-entropy over the similarity matrix
    S(i, j) = -||h_i - u_j||^2 / temperature, as one tape node.

    dL/dS = 0.5 / B (softmax_rows(S) + softmax_cols(S) - 2 I); through
    D = ||h_i||^2 + ||u_j||^2 - 2 h_i . u_j and S = -D / temperature that gives
    dL/dh = 2 (rowsum(G) h - G u) and dL/du = 2 (colsum(G) u - G^T h) with
    G = dL/dD."""
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    batch = _check_batch(h.data, u.data)
    hd, ud = h.data, u.data
    dists = ((hd * hd).sum(axis=1, keepdims=True) + (ud * ud).sum(axis=1)[None, :]
             - (hd @ ud.T) * 2.0)
    sims = dists * (-1.0 / temperature)
    diag = sims.diagonal()
    lse_rows, probs_rows = _logsumexp_rows(sims)
    lse_cols, probs_cols = _logsumexp_rows(sims.T)
    loss = (np.sum(lse_rows - diag) * (1.0 / batch)
            + np.sum(lse_cols - diag) * (1.0 / batch)) * 0.5

    def backward(grad):
        dd = (probs_rows + probs_cols.T - 2.0 * np.eye(batch)) * (
            grad * 0.5 / batch * (-1.0 / temperature))
        return ((h, 2.0 * (dd.sum(axis=1)[:, None] * hd - dd @ ud)),
                (u, 2.0 * (dd.sum(axis=0)[:, None] * ud - dd.T @ hd)))

    return Tensor(loss, _parents=(h, u), _backward=backward)


def contrastive_loss(h: np.ndarray, u: np.ndarray, temperature: float):
    """Loss value plus gradients w.r.t. both embedding batches."""
    ht = Tensor(np.asarray(h, dtype=np.float64), requires_grad=True)
    ut = Tensor(np.asarray(u, dtype=np.float64), requires_grad=True)
    loss = contrastive_loss_tensor(ht, ut, temperature)
    loss.backward()
    return loss.item(), ht.grad, ut.grad


def alignment_uniformity(h: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Diagnostics: alignment = mean ||h_i - u_i||^2; uniformity = mean over i
    of log mean over j of e^{-||u_i - h_j||^2}."""
    h = np.asarray(h, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    _check_batch(h, u)
    alignment = float(np.mean(np.sum((h - u) ** 2, axis=1)))
    d2 = (
        np.sum(u * u, axis=1)[:, None]
        + np.sum(h * h, axis=1)[None, :]
        - 2.0 * (u @ h.T)
    )
    uniformity = float(np.mean(np.log(np.mean(np.exp(-d2), axis=1))))
    return alignment, uniformity


def supervised_contrastive_loss_tensor(
    z: Tensor,
    labels: np.ndarray,
    label_embeddings: np.ndarray,
    temperature: float = 0.1,
) -> Tensor:
    """Supervised contrastive loss of anchors against label sentences and
    same-batch anchors, as one tape node (Khosla et al. 2020, SupCon).

    For anchor i the candidate set is every label sentence plus every other
    anchor; positives are the anchor's own class sentence and same-class
    anchors. The logits are S = [z E^T, z z^T] / temperature (all rows
    unit-norm, so cosine similarities), each anchor's self column masked
    with -inf, which holds at any temperature.
    With the positive mask P and per-anchor positive counts c,
    dL/dS = (softmax_rows(S) - P / c) / B, so
    dL/dz = (dS_E E + (dS_z + dS_z^T) z) / temperature.
    """
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    zd = z.data
    label_embeddings = np.asarray(label_embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if zd.ndim != 2 or label_embeddings.ndim != 2 or label_embeddings.shape[1] != zd.shape[1]:
        raise ValidationError(f"anchors {zd.shape} and label embeddings "
                              f"{label_embeddings.shape} need 2-D rows of one width")
    batch, num_classes = zd.shape[0], label_embeddings.shape[0]
    if batch == 0:
        raise ValidationError("empty batch")
    if labels.shape != (batch,) or not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be {batch} integers, got {labels.dtype} "
                              f"of shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValidationError("label id out of range")

    inv_t = 1.0 / temperature
    rows = np.arange(batch)
    logits = np.concatenate([(zd @ label_embeddings.T) * inv_t, (zd @ zd.T) * inv_t],
                            axis=1)                                   # (B, C + B)
    logits[rows, num_classes + rows] = -np.inf     # no anchor is its own candidate

    positives = np.zeros((batch, num_classes + batch))
    positives[rows, labels] = 1.0
    positives[:, num_classes:] = (labels[:, None] == labels) & ~np.eye(batch, dtype=bool)
    counts = positives.sum(axis=1)                 # >= 1: own class sentence

    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1, keepdims=True)
    log_prob = logits - (np.log(total) + shift)
    # Only positives are summed: the self column's -inf never meets a 0 weight.
    positive_sum = np.where(positives > 0.0, log_prob, 0.0).sum(axis=1)
    loss = np.sum(positive_sum * (-1.0 / counts)) * (1.0 / batch)

    def backward(grad):
        ds = (e / total - positives / counts[:, None]) * (grad * inv_t / batch)
        ds_label, ds_anchor = ds[:, :num_classes], ds[:, num_classes:]
        return ((z, ds_label @ label_embeddings + (ds_anchor + ds_anchor.T) @ zd),)

    return Tensor(loss, _parents=(z,), _backward=backward)
