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

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import replacing
from .autodiff import Tensor
from .corpus import GraphSummaryPair
from .encoder import (
    GraphEncoderConfig,
    PaddedBatch,
    ParamStore,
    encode_batch,
    save_checkpoint,
    subgraph_batch,
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

    ``epsilon`` may be zero (empty feasible set: the adversary is inert). The
    per-subgraph delta block norm never exceeds epsilon after an update.
    """

    epsilon: float = 1e-2
    norm_p: float = 2.0
    inner_steps: int = 3

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValidationError("epsilon must be >= 0")
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
        if not self.lr > 0:
            raise ValidationError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")


class AdamW:
    """Decoupled weight decay Adam over a named tensor dict."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, tensors: dict[str, Tensor], config: OptimizerConfig):
        self.tensors = tensors
        self.config = config
        self.step_count = 0
        # Moments of all arrays as one flat vector, names in sorted order.
        self._names = sorted(tensors)
        self._ends = np.cumsum([tensors[name].data.size for name in self._names]).tolist()
        self.m = np.zeros(self._ends[-1])
        self.v = np.zeros_like(self.m)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of every array. It is computed once over the
        concatenated vector; each element sees the same operations as in a
        per-array update, so the result is bit-identical to one."""
        cfg = self.config
        beta1, beta2 = self.BETA1, self.BETA2
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([grads[name].ravel() for name in self._names])
        data = np.concatenate([self.tensors[name].data.ravel() for name in self._names])
        self.m = beta1 * self.m + (1 - beta1) * g
        self.v = beta2 * self.v + (1 - beta2) * (g * g)
        m_hat = self.m / (1 - beta1 ** t)
        v_hat = self.v / (1 - beta2 ** t)
        update = cfg.lr * (m_hat / (np.sqrt(v_hat) + self.EPS) + cfg.weight_decay * data)
        for name, start, end in zip(self._names, [0] + self._ends, self._ends):
            target = self.tensors[name].data
            target -= update[start:end].reshape(target.shape)


@dataclass
class InnerLoopResult:
    gradients: dict[str, np.ndarray]
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
) -> tuple[dict[str, np.ndarray], float, np.ndarray, np.ndarray]:
    """One forward and one backward over the whole batch at features ``x``.
    Returns (parameter gradients, loss, embeddings, feature gradient)."""
    leaf = Tensor(x, requires_grad=True)
    h, _ = encode_batch(store, config, batch, leaf)
    loss = contrastive_loss_tensor(h, Tensor(summary_embs), temperature)
    store.zero_grads()
    loss.backward()
    return store.gradients(), loss.item(), h.data.copy(), leaf.grad


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
    delta_{M-1}) and averaged; the returned delta blocks satisfy the norm
    constraint exactly. Each step's ascent reads the feature gradient of the
    backward pass that also gives its parameter gradients. With epsilon = 0
    every visited delta is 0, so a single step gives the clean gradient.
    """
    steps = pert.inner_steps if pert.epsilon > 0.0 else 1
    delta = np.zeros_like(batch.features)
    skipped = 0
    max_norm = 0.0

    for m in range(steps):
        grads, final_loss, h, x_grad = _forward_backward(
            store, config, batch, batch.features + delta, summary_embs, temperature)
        if m == 0:
            first_loss, h_clean, accum = final_loss, h, grads
        else:
            accum = {name: accum[name] + g for name, g in grads.items()}

        skipped += int(np.sum(block_norms(x_grad, pert.norm_p) == 0.0))
        delta = project_block(delta + pert.alpha * ascent_direction(x_grad, pert.norm_p),
                              pert.epsilon, pert.norm_p)
        norms = block_norms(delta, pert.norm_p)
        max_norm = max(max_norm, float(norms.max()))

    return InnerLoopResult(
        gradients={name: g / steps for name, g in accum.items()},
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
) -> PaddedBatch:
    """Sample every pair's subgraph once, deterministically from its source
    graph and sampler seed, into one padded batch in pair order. The pairs
    of one graph are walked by one ``rwr_batch``."""
    groups: dict[str, list[int]] = {}
    for row, pair in enumerate(pairs):
        graph = graphs.get(pair.graph_id)
        if graph is None:
            raise ValidationError(f"pair references unknown graph {pair.graph_id!r}")
        if graph.features is None:
            raise ValidationError(
                f"graph {pair.graph_id!r} has no features; attach an encoder first"
            )
        groups.setdefault(pair.graph_id, []).append(row)
    parts = []
    for graph_id, rows in groups.items():
        node_sets = rwr_batch(graphs[graph_id], [pairs[i].seed_id for i in rows],
                              [pairs[i].sampler_seed for i in rows], sampler_cfg, None)
        parts.append((rows, subgraph_batch(config, graphs[graph_id], node_sets, None)))
    n = max(part.features.shape[1] for _, part in parts)
    out = PaddedBatch(np.zeros((len(pairs), n, config.text_dim)),
                      np.zeros((len(pairs), n, config.positional_dim)),
                      np.zeros((len(pairs), n, n)), np.zeros(len(pairs), dtype=np.int64))
    for rows, part in parts:
        k = part.features.shape[1]
        out.features[rows, :k] = part.features
        out.positional[rows, :k] = part.positional
        out.neighbor_mean[rows, :k, :k] = part.neighbor_mean
        out.sizes[rows] = part.sizes
    return out


def write_metrics_csv(path, rows: list[dict]) -> None:
    with replacing(path) as temp, open(temp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=METRICS_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in METRICS_COLUMNS})


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
    final checkpoint.
    """
    if not pairs:
        raise ValidationError("empty pair dataset")
    if epochs < 0 or batch_size < 1 or checkpoint_every < 0:
        raise ValidationError(f"need epochs >= 0, batch_size >= 1 and checkpoint_every >= 0, "
                              f"got {epochs}, {batch_size} and {checkpoint_every}")
    optimizer_config = optimizer_config or OptimizerConfig()
    perturbation = perturbation or PerturbationState(epsilon=0.0)
    sampler_cfg = sampler_cfg or SamplerConfig()

    checksum_before = text_encoder.state_checksum()
    graphs = {
        gid: g if g.features is not None else attach_features(g, text_encoder)
        for gid, g in graphs.items()
    }
    subgraphs = materialize_subgraphs(pairs, graphs, sampler_cfg, graph_config)
    summary_matrix = text_encoder.encode_texts([p.summary for p in pairs])

    store = ParamStore.initialize(graph_config, seed=seed)
    optimizer = AdamW(store.tensors, optimizer_config)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xB41C])))

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

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
            if not np.isfinite(inner.first_loss):
                raise NonFiniteLossError(
                    f"non-finite loss at step {step} (epoch {epoch})",
                    dump={
                        "step": step,
                        "epoch": epoch,
                        "pair_indices": [int(i) for i in batch_ids],
                        "pair_keys": [list(pairs[i].key) for i in batch_ids],
                        "loss": inner.first_loss,
                    },
                )

            optimizer.step(inner.gradients)
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
                            store, graph_config, _metadata(optimizer_config,
                                                           perturbation, epochs,
                                                           batch_size, seed,
                                                           temperature,
                                                           checksum_before))

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
        save_checkpoint(path, store, graph_config,
                        _metadata(optimizer_config, perturbation, epochs,
                                  batch_size, seed, temperature, checksum_before))
        write_metrics_csv(out_dir / "metrics.csv", metrics)
        result.checkpoint_path = path
    return result


def _metadata(optimizer_config, perturbation, epochs, batch_size, seed,
              temperature, text_checksum) -> dict:
    # epsilon = 0 is canonicalized to "no adversary" so that run's checkpoint
    # bytes match a run with the adversary disabled outright.
    active = perturbation.epsilon > 0.0
    return {
        "lr": optimizer_config.lr,
        "weight_decay": optimizer_config.weight_decay,
        "epochs": epochs,
        "batch_size": batch_size,
        "seed": seed,
        "temperature": temperature,
        "epsilon": perturbation.epsilon if active else 0.0,
        "inner_steps": perturbation.inner_steps if active else 0,
        "norm_p": perturbation.norm_p if active else 2.0,
        "text_encoder_checksum": text_checksum,
    }
