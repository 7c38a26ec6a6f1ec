"""Contrastive pretraining with an adversarial feature-perturbation inner loop.

The outer loop minimizes the in-batch contrastive loss; the inner loop runs M
projected-ascent steps on a per-node feature perturbation delta (one block
per subgraph, norm-constrained to an epsilon ball) against fixed summary
embeddings, accumulating parameter gradients at each visited delta and
averaging them for the outer update. A disabled adversary is epsilon = 0:
the feasible set is {0} and every inner gradient equals the clean gradient,
so that case runs a single pass.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_csv
from .autodiff import Tensor
from .corpus import GraphSummaryPair
from .encoder import (
    GraphEncoderConfig,
    PaddedBatch,
    PairBatch,
    ParamStore,
    encode_batch,
    pair_batch,
    save_checkpoint,
)
from .errors import NonFiniteLossError, ValidationError
from .graphs import SamplerConfig, TextAttributedGraph, rwr_batch
from .losses import alignment_uniformity, contrastive_loss_tensor
from .textenc import attach_features

METRICS_COLUMNS = ("step", "epoch", "loss", "alignment", "uniformity",
                   "delta_norm_mean", "lr")


@dataclass
class PerturbationState:
    """Adversarial perturbation settings.

    ``epsilon`` is finite and may be zero (empty feasible set: the adversary
    is inert). The per-subgraph delta block norm never exceeds epsilon after
    an update.
    """

    epsilon: float = 1e-2
    norm_p: float = 2.0
    inner_steps: int = 3

    def __post_init__(self):
        if not 0.0 <= self.epsilon < float("inf"):
            raise ValidationError("epsilon must be finite and >= 0")
        if self.norm_p not in (2.0, float("inf")):
            raise ValidationError("norm_p must be 2 or inf")
        if self.inner_steps < 1:
            raise ValidationError("inner_steps must be >= 1")

    @property
    def alpha(self) -> float:
        """Ascent step size: M steps can just reach the epsilon sphere."""
        return self.epsilon / self.inner_steps


def block_norms(delta: np.ndarray, norm_p: float) -> np.ndarray:
    """Norm of each trailing (n, d) block; leading axes index the blocks."""
    if norm_p == float("inf"):
        return np.abs(delta).max(axis=(-2, -1), initial=0.0)
    return np.sqrt((delta * delta).sum(axis=(-2, -1)))


def project_block(delta: np.ndarray, epsilon: float, norm_p: float) -> np.ndarray:
    """Exact projection of each delta block onto the epsilon norm ball."""
    if norm_p == float("inf"):
        return np.clip(delta, -epsilon, epsilon)
    norm = block_norms(delta, norm_p)[..., None, None]
    return delta * np.minimum(1.0, epsilon / np.where(norm > 0.0, norm, 1.0))


def ascent_direction(grad: np.ndarray, norm_p: float) -> np.ndarray:
    """Unit-norm ascent direction of each block; zero for a zero gradient."""
    if norm_p == float("inf"):
        return np.sign(grad)
    norm = block_norms(grad, norm_p)[..., None, None]
    return grad / np.where(norm > 0.0, norm, 1.0)


@dataclass
class OptimizerConfig:
    lr: float = 1e-5
    weight_decay: float = 1e-5

    def __post_init__(self):
        if not 0 < self.lr < float("inf"):
            raise ValidationError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < float("inf"):
            raise ValidationError(f"weight_decay must be finite, >= 0, got {self.weight_decay}")


class AdamW:
    """Decoupled weight decay Adam, in place over one flat parameter vector
    and its gradient vector: a ``ParamStore``'s ``data`` and ``grad``, or
    prompt tuning's prompt."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    # Elements per block of the update. The sixteen passes over one block
    # stay in cache: at the small preset (10.9M parameters, 2-vCPU x86-64
    # container) a step took 128 ms in blocks against 237 ms over the whole
    # vector.
    BLOCK = 1 << 15

    def __init__(self, data: np.ndarray, grad: np.ndarray, config: OptimizerConfig):
        self.data, self.grad = data, grad
        self.config = config
        self.step_count = 0
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self._scratch = np.empty((2, min(data.size, self.BLOCK)))

    def step(self) -> None:
        """One update of every element from the current gradient, block by
        block. Each element sees the operations of m = b1 m + (1 - b1) g,
        v = b2 v + (1 - b2) g^2, data -= lr (m_hat / (sqrt(v_hat) + eps)
        + wd data), in that order, computed in place."""
        self.step_count += 1
        for start in range(0, self.data.size, self.BLOCK):
            block = slice(start, start + self.BLOCK)
            self._update(self.data[block], self.grad[block], self.m[block], self.v[block])

    def _update(self, data, g, m, v) -> None:
        cfg, t = self.config, self.step_count
        beta1, beta2 = self.BETA1, self.BETA2
        a, b = self._scratch[:, :data.size]
        m *= beta1
        m += np.multiply(g, 1 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=a), 1 - beta2, out=a)
        np.divide(m, 1 - beta1 ** t, out=a)
        np.divide(v, 1 - beta2 ** t, out=b)
        a /= np.add(np.sqrt(b, out=b), self.EPS, out=b)
        a += np.multiply(data, cfg.weight_decay, out=b)
        a *= cfg.lr
        data -= a


@dataclass
class InnerLoopResult:
    # The averaged parameter gradients stay in the store's gradient buffer.
    first_loss: float
    final_loss: float
    clean_embeddings: np.ndarray         # graph batch at delta = 0, pre-update
    delta_blocks: np.ndarray             # (B, n_max, d); padded rows stay zero
    delta_norms: np.ndarray              # per-subgraph norms after the last update
    max_block_norm: float                # max over all inner steps and blocks
    skipped_zero_grad_steps: int


def _forward_backward(
    store: ParamStore,
    config: GraphEncoderConfig,
    batch: PaddedBatch,
    x: np.ndarray,
    summary_embs: np.ndarray,
    temperature: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One forward and one backward over the whole batch at features ``x``;
    the parameter gradients are added to the store's gradient buffer.
    Returns (loss, embeddings, feature gradient)."""
    leaf = Tensor(x, requires_grad=True)
    h, _ = encode_batch(store, config, batch, leaf)
    loss = contrastive_loss_tensor(h, Tensor(summary_embs), temperature)
    loss.backward()
    return loss.item(), h.data, leaf.grad


def inner_maximize(
    store: ParamStore,
    config: GraphEncoderConfig,
    batch: PaddedBatch,
    summary_embs: np.ndarray,
    pert: PerturbationState,
    temperature: float,
) -> InnerLoopResult:
    """M projected-ascent steps on delta with per-step gradient accumulation.

    Parameter gradients are taken at each visited delta (delta_0 = 0 through
    delta_{M-1}) and averaged in the store's gradient buffer: it is zeroed
    once, each backward adds one contribution per parameter, and the sum is
    divided once. The returned delta blocks satisfy the norm constraint
    exactly. Each step's ascent reads the feature gradient of the backward
    pass that also gives its parameter gradients. With epsilon = 0 every
    visited delta is 0, so a single step gives the clean gradient.
    """
    steps = pert.inner_steps if pert.epsilon > 0.0 else 1
    delta = np.zeros_like(batch.features)
    skipped = 0
    max_norm = 0.0

    store.zero_grads()
    for m in range(steps):
        final_loss, h, x_grad = _forward_backward(
            store, config, batch, batch.features + delta, summary_embs, temperature)
        if m == 0:
            first_loss, h_clean = final_loss, h

        skipped += int(np.sum(block_norms(x_grad, pert.norm_p) == 0.0))
        delta = project_block(delta + pert.alpha * ascent_direction(x_grad, pert.norm_p),
                              pert.epsilon, pert.norm_p)
        norms = block_norms(delta, pert.norm_p)
        max_norm = max(max_norm, float(norms.max()))
    store.grad /= steps

    return InnerLoopResult(
        first_loss=first_loss, final_loss=final_loss,
        clean_embeddings=h_clean, delta_blocks=delta, delta_norms=norms,
        max_block_norm=max_norm, skipped_zero_grad_steps=skipped,
    )


@dataclass
class PretrainResult:
    store: ParamStore
    config: GraphEncoderConfig
    metrics: list[dict]
    delta_norm_trace: list[np.ndarray] = field(default_factory=list)
    checkpoint_path: Path | None = None
    text_checksum_before: str = ""
    text_checksum_after: str = ""

    @property
    def text_encoder_frozen(self) -> bool:
        return self.text_checksum_before == self.text_checksum_after


def materialize_subgraphs(
    pairs: list[GraphSummaryPair],
    graphs: dict[str, TextAttributedGraph],
    sampler_cfg: SamplerConfig,
    config: GraphEncoderConfig,
) -> PairBatch:
    """Sample every pair's subgraph once, deterministically from its source
    graph and sampler seed, in pair order: one ``rwr_batch`` walks the pairs
    of each graph, and one ``encoder.pair_batch`` builds every walk."""
    groups: dict[str, list[int]] = {}
    for row, pair in enumerate(pairs):
        if pair.graph_id not in graphs:
            raise ValidationError(f"pair references unknown graph {pair.graph_id!r}")
        groups.setdefault(pair.graph_id, []).append(row)
    return pair_batch(config, [
        (graphs[graph_id], rows, rwr_batch(graphs[graph_id], [pairs[i].seed_id for i in rows],
                                           [pairs[i].sampler_seed for i in rows],
                                           sampler_cfg, None), None)
        for graph_id, rows in groups.items()])


# glibc's mallopt parameters (malloc.h) and the largest values its own
# adjustment of them reaches on 64-bit systems.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20


@functools.cache
def _retain_freed_memory() -> None:
    """Keep freed heap memory in the process instead of returning it.

    Every inner pass allocates and frees about the same tape, about 1.5 MB
    at the bench's toy size. glibc gives the top of its heap back to the
    system whenever it exceeds the trim threshold, by default twice the
    largest mmapped block freed so far, and the next pass faults those
    pages in again: with nothing long-lived allocated above the tape, a
    toy job took 28,000 minor faults and 65 ms of system time (glibc 2.36
    on a 2-vCPU x86-64 container). The thresholds are set, for the whole
    process, to the largest values glibc's own adjustment reaches, once (a
    ``ctypes.CDLL`` lookup leaves a reference cycle). No-op without ``mallopt``.
    """
    import ctypes

    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def pretrain(
    pairs: list[GraphSummaryPair],
    graphs: dict[str, TextAttributedGraph],
    text_encoder,
    graph_config: GraphEncoderConfig,
    optimizer_config: OptimizerConfig | None = None,
    perturbation: PerturbationState | None = None,
    *,
    epochs: int = 30,
    batch_size: int = 16,
    seed: int = 0,
    temperature: float = 0.1,
    sampler_cfg: SamplerConfig | None = None,
    out_dir=None,
    checkpoint_every: int = 1,
) -> PretrainResult:
    """Full pretraining loop: deterministic given ``seed``.

    With ``out_dir`` set, writes a metrics CSV, a checkpoint every
    ``checkpoint_every`` epochs (0 disables per-epoch checkpoints), and the
    final checkpoint. Raises the C library's heap trim and mmap thresholds
    for the process (``_retain_freed_memory``).
    """
    if not pairs:
        raise ValidationError("empty pair dataset")
    if epochs < 0 or batch_size < 1 or checkpoint_every < 0:
        raise ValidationError(f"need epochs >= 0, batch_size >= 1 and checkpoint_every >= 0, "
                              f"got {epochs}, {batch_size} and {checkpoint_every}")
    optimizer_config = optimizer_config or OptimizerConfig()
    perturbation = perturbation or PerturbationState(epsilon=0.0)
    sampler_cfg = sampler_cfg or SamplerConfig()
    _retain_freed_memory()

    checksum_before = text_encoder.state_checksum()
    graphs = {
        gid: g if g.features is not None else attach_features(g, text_encoder)
        for gid, g in graphs.items()
    }
    subgraphs = materialize_subgraphs(pairs, graphs, sampler_cfg, graph_config)
    summary_matrix = text_encoder.encode_texts([p.summary for p in pairs])

    store = ParamStore.initialize(graph_config, seed=seed)
    optimizer = AdamW(store.data, store.grad, optimizer_config)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xB41C])))

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    # epsilon = 0 is canonicalized to "no adversary" so that run's checkpoint
    # bytes match a run with the adversary disabled outright.
    active = perturbation.epsilon > 0.0
    metadata = {
        "lr": optimizer_config.lr,
        "weight_decay": optimizer_config.weight_decay,
        "epochs": epochs,
        "batch_size": batch_size,
        "seed": seed,
        "temperature": temperature,
        "epsilon": perturbation.epsilon if active else 0.0,
        "inner_steps": perturbation.inner_steps if active else 0,
        "norm_p": perturbation.norm_p if active else 2.0,
        "text_encoder_checksum": checksum_before,
    }

    metrics: list[dict] = []
    delta_trace: list[np.ndarray] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), batch_size):
            batch_ids = order[start:start + batch_size]
            batch_u = summary_matrix[batch_ids]

            inner = inner_maximize(store, graph_config, subgraphs.take(batch_ids), batch_u,
                                   perturbation, temperature)
            optimizer.step()
            # One sum flags a NaN or infinity that a non-finite gradient or an
            # overflowing update left in the parameters, with no temporary.
            if not (np.isfinite(inner.first_loss) and np.isfinite(np.sum(store.data))):
                raise NonFiniteLossError(
                    f"non-finite loss or update at step {step} (epoch {epoch})",
                    dump={
                        "step": step,
                        "epoch": epoch,
                        "pair_indices": [int(i) for i in batch_ids],
                        "pair_keys": [list(pairs[i].key) for i in batch_ids],
                        "loss": inner.first_loss,
                    },
                )
            alignment, uniformity = alignment_uniformity(inner.clean_embeddings, batch_u)
            metrics.append({
                "step": step,
                "epoch": epoch,
                "loss": inner.first_loss,
                "alignment": alignment,
                "uniformity": uniformity,
                "delta_norm_mean": float(inner.delta_norms.mean()),
                "lr": optimizer_config.lr,
            })
            delta_trace.append(inner.delta_norms)
            step += 1

        if out_dir is not None and checkpoint_every and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(out_dir / f"checkpoint_epoch{epoch + 1}.bin",
                            store, graph_config, metadata)

    checksum_after = text_encoder.state_checksum()
    if checksum_after != checksum_before:
        raise ValidationError("text encoder state changed during pretraining")

    result = PretrainResult(
        store=store, config=graph_config, metrics=metrics,
        delta_norm_trace=delta_trace,
        text_checksum_before=checksum_before, text_checksum_after=checksum_after,
    )
    if out_dir is not None:
        path = out_dir / "checkpoint.bin"
        save_checkpoint(path, store, graph_config, metadata)
        write_csv(out_dir / "metrics.csv", METRICS_COLUMNS, metrics)
        result.checkpoint_path = path
    return result
