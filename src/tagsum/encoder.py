"""Trainable graph encoder: a local/global two-branch transformer stack.

Each layer sums three terms — the residual stream, a local branch (two
linear maps over the node state and its degree-normalized neighbor mean),
and a global multi-head self-attention branch over all subgraph nodes —
then layer-normalizes and applies a 2x-width feed-forward block with a
second normalization. Node states are mean-pooled, projected to the text
dimension, and L2-normalized, so graph and summary embeddings live on the
same unit sphere. A minibatch is encoded on one tape as a zero-padded,
masked batch; a single subgraph is a batch of one. Walks become batches
through one builder, ``pair_batch``: its ``PairBatch`` holds node ids into
the source graphs' features, and ``take`` gathers a padded batch.

Positional encodings are concatenated to the node features at the input
projection. Parameters live in a ``ParamStore``: named float64 tensors
that are views into one flat data buffer and one flat gradient buffer,
laid out in sorted-name order. A checkpoint's blob is that data buffer, so
a store keeps its flat bytes through a save and a load.

On the tape a forward is 2 + 2 * layers nodes. Each is one op whose
forward and hand-written backward run in numpy (rows(a) flattens the batch
axes, so every weight gradient is one matmul, rows(input)^T rows(dY)):

- ``input_projection``: concat(x, pos) W + b; dx = dY W[:d]^T.
- ``mixing_sublayer``: LN1(h + local(h) + attn(h)). The attention
  probabilities are kept key-major, P = softmax over keys of K Q^T / sqrt(hd),
  shape (B, heads, keys, queries), so every softmax reduction runs over
  axis -2. Backward runs the layer-norm kernel of ``autodiff``, then the
  output projection, then the softmax identity in the same layout,
  dS = P * (dP - colsum(dP * P)) with dP = V dO^T and the sum over keys,
  and dQ = dS^T K / sqrt(hd), dK = dS Q / sqrt(hd), dV = P dO. Q/K/V come
  from one matmul over the concatenated weights, and so does their weight
  gradient, split back into the ``attn_q/k/v`` slots.
- ``ffn_sublayer``: LN2(h + W2 gelu(W1 h + b1) + b2).
- ``readout``: masked mean pooling, projection and L2 normalization;
  through y = p / ||p||, dp = (dy - y (y . dy)) / ||p||.

An op's only tape parent is its input activation; the store's tensors are
not on the tape. Backward adds the weight and bias gradients into the
store's gradient views itself and returns the input's gradient. A store
without a gradient buffer, the frozen tower of prompt tuning, costs no
weight-gradient matmul.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .atomic import replacing
from .autodiff import Tensor
from .errors import ShapeError, ValidationError
from .graphs import (
    INDUCE_CHUNK,
    EgoSubgraph,
    TextAttributedGraph,
    batched_rwpe,
    degree_normalized,
    induced_edges,
)
from .textenc import Embedding

CHECKPOINT_MAGIC = b"TAGSUMCK"
CHECKPOINT_VERSION = 1

# (layers, hidden) per published scale; heads chosen so hidden % heads == 0.
SCALE_PRESETS = {
    "small": (4, 512),
    "medium": (8, 768),
    "base": (12, 1024),
    "large": (16, 1024),
}


@dataclass(frozen=True)
class GraphEncoderConfig:
    layers: int
    hidden: int
    heads: int
    positional_dim: int
    text_dim: int

    def __post_init__(self):
        if self.layers < 1 or self.hidden < 1 or self.heads < 1:
            raise ValidationError("layers, hidden, and heads must be positive")
        if self.hidden % self.heads != 0:
            raise ValidationError(
                f"hidden {self.hidden} not divisible by heads {self.heads}"
            )
        if self.positional_dim < 1 or self.text_dim < 1:
            raise ValidationError("positional_dim and text_dim must be positive")


def preset_config(
    name: str, positional_dim: int = 16, text_dim: int = 384, heads: int = 8
) -> GraphEncoderConfig:
    """Named scale preset; layer count and hidden size are fixed per scale."""
    if name not in SCALE_PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(SCALE_PRESETS)}")
    layers, hidden = SCALE_PRESETS[name]
    return GraphEncoderConfig(
        layers=layers, hidden=hidden, heads=heads,
        positional_dim=positional_dim, text_dim=text_dim,
    )


def parameter_shapes(config: GraphEncoderConfig) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes of the encoder, in deterministic order."""
    d, k, h = config.text_dim, config.positional_dim, config.hidden
    shapes: dict[str, tuple[int, ...]] = {
        "input.weight": (d + k, h),
        "input.bias": (h,),
    }
    for i in range(config.layers):
        prefix = f"layer{i}."
        shapes[prefix + "local_self.weight"] = (h, h)
        shapes[prefix + "local_self.bias"] = (h,)
        shapes[prefix + "local_neigh.weight"] = (h, h)
        shapes[prefix + "local_neigh.bias"] = (h,)
        for name in ("attn_q", "attn_k", "attn_v", "attn_out"):
            shapes[prefix + name + ".weight"] = (h, h)
            shapes[prefix + name + ".bias"] = (h,)
        shapes[prefix + "norm1.gain"] = (h,)
        shapes[prefix + "norm1.bias"] = (h,)
        shapes[prefix + "ffn1.weight"] = (h, 2 * h)
        shapes[prefix + "ffn1.bias"] = (2 * h,)
        shapes[prefix + "ffn2.weight"] = (2 * h, h)
        shapes[prefix + "ffn2.bias"] = (h,)
        shapes[prefix + "norm2.gain"] = (h,)
        shapes[prefix + "norm2.bias"] = (h,)
    shapes["proj.weight"] = (h, d)
    shapes["proj.bias"] = (d,)
    return shapes


def parameter_count(config: GraphEncoderConfig) -> int:
    """Graph-tower parameter count from shapes alone; nothing is allocated."""
    return sum(int(np.prod(shape)) for shape in parameter_shapes(config).values())


def sentence_encoder_parameter_count(
    vocab_size: int = 30522,
    hidden: int = 384,
    layers: int = 6,
    intermediate: int = 1536,
    max_positions: int = 512,
    type_vocab: int = 2,
) -> int:
    """Parameter count of the frozen 6-layer/384-hidden sentence encoder the
    projector targets, from shapes alone (BERT-style stack with pooler)."""
    embeddings = (vocab_size + max_positions + type_vocab) * hidden + 2 * hidden
    per_layer = (
        4 * (hidden * hidden + hidden)        # q, k, v, out
        + 2 * hidden                          # attention norm
        + hidden * intermediate + intermediate
        + intermediate * hidden + hidden
        + 2 * hidden                          # output norm
    )
    pooler = hidden * hidden + hidden
    return embeddings + layers * per_layer + pooler


def preset_total_parameter_count(name: str, **kwargs) -> int:
    """Graph tower plus frozen text tower, the published per-scale figure."""
    return parameter_count(preset_config(name, **kwargs)) + sentence_encoder_parameter_count()


class ParamStore:
    """Named float64 parameter tensors over one flat data buffer and one flat
    gradient buffer, laid out in sorted-name order (the checkpoint's) however
    ``shapes`` is ordered: each tensor's ``data`` and ``grad`` are views into
    ``self.data`` and ``self.grad``, so backward accumulates into the flat
    gradient in place and the optimizer updates the flat data in place. The
    tensors are never tape parents: the encoder ops add into the gradient
    views themselves. A store built with ``trainable=False`` has no gradient
    buffer, so backward computes no weight gradient for it."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], data: np.ndarray | None = None,
                 trainable: bool = True):
        self.shapes = dict(sorted(shapes.items()))
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.data = np.zeros(sum(sizes)) if data is None else data
        self.grad = np.zeros_like(self.data) if trainable else None
        self.tensors: dict[str, Tensor] = {}
        start = 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            end = start + size
            tensor = Tensor(self.data[start:end].reshape(shape))
            if trainable:
                tensor.grad = self.grad[start:end].reshape(shape)
            self.tensors[name] = tensor
            start = end

    @classmethod
    def initialize(cls, config: GraphEncoderConfig, seed: int = 0) -> "ParamStore":
        """Uniform init scaled by 1/sqrt(fan_in) for weights; zeros for biases;
        ones for norm gains. Deterministic given the seed; the weights take
        one generator's draws in ``parameter_shapes`` order."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        shapes = parameter_shapes(config)
        store = cls(shapes)
        for name, shape in shapes.items():
            if name.endswith(".weight"):
                bound = 1.0 / np.sqrt(shape[0])
                store[name].data[...] = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(".gain"):
                store[name].data[...] = 1.0
        return store

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.shapes)

    def zero_grads(self) -> None:
        self.grad[...] = 0.0

    def parameter_count(self) -> int:
        return self.data.size

    def checksum(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


def _check_inputs(config: GraphEncoderConfig, sub: EgoSubgraph):
    if sub.features.shape[1] != config.text_dim:
        raise ShapeError(
            f"subgraph features: expected (n, {config.text_dim}), got {sub.features.shape}"
        )
    if sub.positional is None:
        raise ShapeError("subgraph has no positional encodings attached")
    if sub.positional.shape[1] != config.positional_dim:
        raise ShapeError(
            f"positional encodings: expected (n, {config.positional_dim}), "
            f"got {sub.positional.shape}"
        )


@dataclass(frozen=True)
class PaddedBatch:
    """B subgraphs zero-padded to ``n_max`` node slots; slot ``i`` of
    subgraph ``b`` holds a real node when ``i < sizes[b]``."""

    features: np.ndarray       # (B, n_max, text_dim)
    positional: np.ndarray     # (B, n_max, positional_dim)
    neighbor_mean: np.ndarray  # (B, n_max, n_max), degree-normalized adjacency
    sizes: np.ndarray          # (B,)

    def __len__(self) -> int:
        return len(self.sizes)


def pad_batch(config: GraphEncoderConfig, subgraphs: list[EgoSubgraph]) -> PaddedBatch:
    """Stack subgraphs into one zero-padded batch."""
    sizes = np.array([sub.num_nodes for sub in subgraphs])
    b, n = len(subgraphs), int(sizes.max())
    features = np.zeros((b, n, config.text_dim))
    positional = np.zeros((b, n, config.positional_dim))
    adjacency = np.zeros((b, n, n))
    for i, sub in enumerate(subgraphs):
        _check_inputs(config, sub)
        k = sub.num_nodes
        features[i, :k], positional[i, :k] = sub.features, sub.positional
        adjacency[i, :k, :k] = sub.adjacency_matrix()
    return PaddedBatch(features, positional, degree_normalized(adjacency), sizes)


@dataclass(frozen=True)
class PairBatch:
    """Subgraphs with their features held by node id: slot ``i`` of subgraph
    ``p`` is row ``ids[p, i]`` of ``table``, the features of the source
    graphs stacked in source order (one source's own array, uncopied).
    Per subgraph this holds n_max int32 ids where a padded batch holds
    n_max x text_dim floats."""

    table: np.ndarray          # (nodes of every source, text_dim)
    ids: np.ndarray            # (P, n_max) int32; padded slots hold 0
    positional: np.ndarray     # (P, n_max, positional_dim)
    neighbor_mean: np.ndarray  # (P, n_max, n_max)
    sizes: np.ndarray          # (P,)

    def __len__(self) -> int:
        return len(self.sizes)

    def take(self, rows) -> PaddedBatch:
        """The subgraphs at ``rows`` (indices, in that order, or a slice) as
        one batch padded to their own n_max; padded slots' features are zero."""
        sizes = self.sizes[rows]
        n = int(sizes.max())
        features = self.table[self.ids[rows, :n]]
        features[np.arange(n) >= sizes[:, None]] = 0.0
        return PaddedBatch(features, self.positional[rows, :n],
                           self.neighbor_mean[rows, :n, :n], sizes)


def pair_batch(config: GraphEncoderConfig, sources) -> PairBatch:
    """Build walks from one or more graphs into one ``PairBatch``.

    ``sources`` holds one ``(graph, rows, node_sets, excluded)`` per source
    graph: subgraph ``rows[j]`` of the batch is induced on ``node_sets[j]``
    (sorted ids, as ``rwr_batch`` returns them), without the edge
    ``excluded[j]`` when ``excluded`` is given and that entry is not None.
    Edges, neighbor means and positional encodings are built
    ``INDUCE_CHUNK`` subgraphs at a time and written in place; a subgraph's
    values do not depend on its chunk or on the padding width.
    """
    sizes = np.zeros(sum(len(rows) for _, rows, _, _ in sources), dtype=np.int64)
    for graph, rows, node_sets, _ in sources:
        if graph.features is None or graph.features.shape[1] != config.text_dim:
            shape = None if graph.features is None else graph.features.shape
            raise ShapeError(f"graph {graph.graph_id!r} has no features of shape "
                             f"(n, {config.text_dim}); got {shape}")
        sizes[rows] = [len(ids) for ids in node_sets]
    n = int(sizes.max())
    ids = np.zeros((len(sizes), n), dtype=np.int32)
    positional = np.zeros((len(sizes), n, config.positional_dim))
    neighbor_mean = np.zeros((len(sizes), n, n))
    offset = 0
    for graph, rows, node_sets, excluded in sources:
        block = np.zeros((len(rows), n), dtype=np.int32)
        block[np.arange(n) < sizes[rows, None]] = np.concatenate(node_sets) + offset
        ids[rows] = block
        offset += graph.num_nodes
        for start in range(0, len(rows), INDUCE_CHUNK):
            chunk = slice(start, start + INDUCE_CHUNK)
            members = rows[chunk]
            k = int(sizes[members].max())
            which, local_u, local_v = induced_edges(
                graph, node_sets[chunk], None if excluded is None else excluded[chunk])
            adjacency = np.zeros((len(members), k, k))
            adjacency[which, local_u, local_v] = adjacency[which, local_v, local_u] = 1.0
            part = degree_normalized(adjacency)
            neighbor_mean[members, :k, :k] = part
            positional[members, :k] = batched_rwpe(part, sizes[members], config.positional_dim)
    tables = [np.asarray(graph.features, dtype=np.float64) for graph, *_ in sources]
    table = tables[0] if len(tables) == 1 else np.concatenate(tables)
    return PairBatch(table, ids, positional, neighbor_mean, sizes)


def subgraph_batch(
    config: GraphEncoderConfig,
    graph: TextAttributedGraph,
    node_sets,
    excluded,
) -> PaddedBatch:
    """``pair_batch`` of one graph's ``node_sets`` and ``excluded`` edges,
    taken whole. Every field equals ``pad_batch`` of the same walks sampled
    one at a time, ``with_positional_encodings(rwr_sample(graph, node, cfg,
    exclude), config.positional_dim)``."""
    batch = pair_batch(config, [(graph, np.arange(len(node_sets)), node_sets, excluded)])
    return batch.take(slice(None))


MIXING_PARAMS = tuple(f"{name}.{kind}" for name in (
    "local_self", "local_neigh", "attn_q", "attn_k", "attn_v", "attn_out")
    for kind in ("weight", "bias")) + ("norm1.gain", "norm1.bias")
FFN_PARAMS = ("ffn1.weight", "ffn1.bias", "ffn2.weight", "ffn2.bias",
              "norm2.gain", "norm2.bias")


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., k) -> (rows, k): a batched x @ W has weight gradient rows(x).T @ rows(g)."""
    return a.reshape(-1, a.shape[-1])


def _real_slots(batch: PaddedBatch) -> np.ndarray:
    return np.arange(batch.features.shape[1]) < batch.sizes[:, None]   # (B, n_max)


def input_projection(x: Tensor, batch: PaddedBatch, store: ParamStore) -> Tensor:
    """concat(x, positional) @ W + b, as one tape node."""
    weight, bias = store["input.weight"], store["input.bias"]
    inputs = np.concatenate([x.data, batch.positional], axis=2)
    width = x.data.shape[-1]

    def backward(grad):
        if store.grad is not None:
            weight.grad += _rows(inputs).T @ _rows(grad)
            bias.grad += _rows(grad).sum(axis=0)
        return ((x, grad @ weight.data[:width].T),)

    return Tensor(inputs @ weight.data + bias.data, _parents=(x,), _backward=backward)


def mixing_sublayer(h: Tensor, batch: PaddedBatch, store: ParamStore, prefix: str,
                    heads: int) -> Tensor:
    """LN1(h + local(h) + attn(h)) as one tape node.

    local(h) = h Ws + bs + (A h) Wn + bn over the degree-normalized adjacency
    A. Attention takes Q/K/V from one matmul over the concatenated weights,
    adds the -inf key mask of padded slots before the max-shifted softmax
    over keys (key-major scores K Q^T), and ends in the output projection.
    The Q/K/V weight gradient is one matmul, split back into the
    ``attn_q/k/v`` slots.
    """
    p = {name: store[prefix + name] for name in MIXING_PARAMS}
    x, adjacency = h.data, batch.neighbor_mean
    b, n, hidden = x.shape
    head_dim = hidden // heads
    scale = 1.0 / np.sqrt(head_dim)
    key_mask = np.where(_real_slots(batch), 0.0, -np.inf)[:, None, :, None]

    neighbors = adjacency @ x
    local = (x @ p["local_self.weight"].data + p["local_self.bias"].data
             + neighbors @ p["local_neigh.weight"].data + p["local_neigh.bias"].data)
    qkv_weight = np.concatenate([p[f"attn_{c}.weight"].data for c in "qkv"], axis=1)
    qkv_bias = np.concatenate([p[f"attn_{c}.bias"].data for c in "qkv"])
    q, k, v = ((x @ qkv_weight + qkv_bias).reshape(b, n, 3, heads, head_dim)
               .transpose(2, 0, 3, 1, 4))                     # each (B, heads, n, hd)
    # Key-major probabilities (B, heads, keys, queries): each query's softmax
    # reduces over axis -2, in place.
    probs = k @ q.swapaxes(-1, -2)
    probs *= scale
    probs += key_mask
    ad.softmax_forward(probs, axis=-2, out=probs)
    context = (probs.swapaxes(-1, -2) @ v).transpose(0, 2, 1, 3).reshape(b, n, hidden)
    attn = context @ p["attn_out.weight"].data + p["attn_out.bias"].data
    out, normed, std = ad.layer_norm_forward(x + local + attn, p["norm1.gain"].data,
                                             p["norm1.bias"].data)

    # The closure holds 19 cells. CPython 3.11 pushes freed 20-item tuples
    # onto a free list that it never pops, so a 20-cell closure would strand
    # 2,000 of them (368 KB) until a full collection.
    def backward(grad):
        dz = ad.layer_norm_backward(grad, normed, std, p["norm1.gain"].data)
        dcontext = (dz @ p["attn_out.weight"].data.T).reshape(b, n, heads, head_dim)
        dcontext = dcontext.transpose(0, 2, 1, 3)
        dscores = ad.softmax_backward(probs, v @ dcontext.swapaxes(-1, -2), axis=-2)
        dscores *= scale                                      # key-major, as probs
        dqkv = np.stack([dscores.swapaxes(-1, -2) @ k, dscores @ q, probs @ dcontext])
        dqkv = _rows(dqkv.transpose(1, 3, 0, 2, 4).reshape(b, n, -1))
        if store.grad is not None:
            dqkv_weight = _rows(x).T @ dqkv    # one matmul for all three weights
            for c, dw, db in zip("qkv", np.split(dqkv_weight, 3, axis=1),
                                 np.split(dqkv.sum(axis=0), 3)):
                p[f"attn_{c}.weight"].grad += dw
                p[f"attn_{c}.bias"].grad += db
            dz_rows = _rows(dz)
            dz_bias = dz_rows.sum(axis=0)      # the three output biases share it
            for name, inputs in (("local_self", x), ("local_neigh", neighbors),
                                 ("attn_out", context)):
                p[name + ".weight"].grad += _rows(inputs).T @ dz_rows
                p[name + ".bias"].grad += dz_bias
            p["norm1.gain"].grad += _rows(grad * normed).sum(axis=0)
            p["norm1.bias"].grad += _rows(grad).sum(axis=0)
        return ((h, dz + dz @ p["local_self.weight"].data.T
                 + adjacency.swapaxes(-1, -2) @ (dz @ p["local_neigh.weight"].data.T)
                 + (dqkv @ qkv_weight.T).reshape(x.shape)),)

    return Tensor(out, _parents=(h,), _backward=backward)


def ffn_sublayer(h: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """LN2(h + W2 gelu(W1 h + b1) + b2) as one tape node."""
    p = {name: store[prefix + name] for name in FFN_PARAMS}
    x = h.data
    pre = x @ p["ffn1.weight"].data + p["ffn1.bias"].data
    act, tanh_term = ad.gelu_forward(pre)
    out, normed, std = ad.layer_norm_forward(
        x + (act @ p["ffn2.weight"].data + p["ffn2.bias"].data),
        p["norm2.gain"].data, p["norm2.bias"].data)

    def backward(grad):
        dz = ad.layer_norm_backward(grad, normed, std, p["norm2.gain"].data)
        dpre = (dz @ p["ffn2.weight"].data.T) * ad.gelu_slope(pre, tanh_term)
        if store.grad is not None:
            p["ffn1.weight"].grad += _rows(x).T @ _rows(dpre)
            p["ffn1.bias"].grad += _rows(dpre).sum(axis=0)
            p["ffn2.weight"].grad += _rows(act).T @ _rows(dz)
            p["ffn2.bias"].grad += _rows(dz).sum(axis=0)
            p["norm2.gain"].grad += _rows(grad * normed).sum(axis=0)
            p["norm2.bias"].grad += _rows(grad).sum(axis=0)
        return ((h, dz + dpre @ p["ffn1.weight"].data.T),)

    return Tensor(out, _parents=(h,), _backward=backward)


def readout(h: Tensor, batch: PaddedBatch, store: ParamStore) -> Tensor:
    """Masked mean pooling over real slots, projection and L2 normalization,
    as one tape node: (B, n_max, hidden) -> unit rows (B, text_dim)."""
    weight, bias = store["proj.weight"], store["proj.bias"]
    real = _real_slots(batch)[:, :, None]
    inv_sizes = 1.0 / batch.sizes[:, None]
    pooled = (h.data * real).sum(axis=1) * inv_sizes
    projected = pooled @ weight.data + bias.data
    norm = np.sqrt((projected * projected).sum(axis=-1, keepdims=True))
    out = projected / norm

    def backward(grad):
        dprojected = (grad - out * (grad * out).sum(axis=-1, keepdims=True)) / norm
        if store.grad is not None:
            weight.grad += pooled.T @ dprojected
            bias.grad += dprojected.sum(axis=0)
        return ((h, real * ((dprojected @ weight.data.T) * inv_sizes)[:, None, :]),)

    return Tensor(out, _parents=(h,), _backward=backward)


def encode_batch(
    store: ParamStore,
    config: GraphEncoderConfig,
    batch: PaddedBatch,
    x_input: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward pass over a padded batch on one tape. Returns (unit-norm
    embeddings (B, d), feature tensor (B, n_max, d)), by default a grad-enabled
    leaf over ``batch.features``. The tape holds 2 + 2 * layers op nodes.

    Padded slots never reach a real node: a -inf key mask hides them from
    attention, their neighbor-mean weight is zero, and pooling skips them, so
    their input values are ignored and get exactly zero gradient."""
    if x_input is None:
        x_input = Tensor(batch.features, requires_grad=True)
    if x_input.data.shape != batch.features.shape:
        raise ShapeError(f"input features: expected {batch.features.shape}, "
                         f"got {x_input.data.shape}")
    h = input_projection(x_input, batch, store)
    for i in range(config.layers):
        h = mixing_sublayer(h, batch, store, f"layer{i}.", config.heads)
        h = ffn_sublayer(h, store, f"layer{i}.")
    return readout(h, batch, store), x_input


def encode_graph_tensor(
    store: ParamStore,
    config: GraphEncoderConfig,
    sub: EgoSubgraph,
    x_input: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward pass of one subgraph as a batch of one. Returns (unit-norm
    embedding (1, d), feature leaf) so callers can read input gradients."""
    if x_input is None:
        x_input = Tensor(sub.features, requires_grad=True)
    out, _ = encode_batch(store, config, pad_batch(config, [sub]),
                          ad.reshape(x_input, (1,) + x_input.data.shape))
    return out, x_input


def embed_batch(
    store: ParamStore,
    config: GraphEncoderConfig,
    batch: PaddedBatch,
    feature_offset: np.ndarray | None = None,
) -> np.ndarray:
    """Inference: unit-norm embeddings (B, d) of a padded batch, with no tape.

    ``feature_offset`` is added to every node's feature row; prompt tuning
    evaluates with its learned offset here.
    """
    features = batch.features if feature_offset is None else batch.features + feature_offset
    with ad.no_grad():
        out, _ = encode_batch(store, config, batch, Tensor(features))
    return out.data


def encode_graph(
    store: ParamStore,
    config: GraphEncoderConfig,
    sub: EgoSubgraph,
) -> Embedding:
    """Encode one subgraph to a unit-norm embedding (a batch of one)."""
    vector = embed_batch(store, config, pad_batch(config, [sub]))[0]
    return Embedding(vector=vector, normalized=True)


def save_checkpoint(path, store: ParamStore, config: GraphEncoderConfig,
                    metadata: dict | None = None) -> None:
    """Binary checkpoint: magic, version, JSON header, then the store's flat
    data buffer as little-endian float64, in the store's sorted-name order.

    Byte-deterministic for identical tensors and metadata, and written
    atomically (``atomic.replacing``).
    """
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "metadata": metadata or {},
        "tensors": [{"name": name, "shape": list(shape)}
                    for name, shape in store.shapes.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path) as temp, open(temp, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        handle.write(store.data.astype("<f8", copy=False))


def load_checkpoint(path) -> tuple[ParamStore, GraphEncoderConfig, dict]:
    """Load a checkpoint; rejects unknown magic, mismatched versions, tensors
    out of sorted-name order, truncated or overlong files, and non-finite
    parameters. The store's data buffer wraps the file's blob, read once
    into a writable buffer."""
    with open(path, "rb") as handle:
        raw = bytearray(os.fstat(handle.fileno()).st_size)
        handle.readinto(raw)
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValidationError("not a checkpoint file (bad magic)")
    if len(raw) < 12:
        raise ValidationError("truncated checkpoint: no header length")
    (header_len,) = struct.unpack("<I", raw[8:12])
    offset = 12 + header_len
    if offset > len(raw):
        raise ValidationError(f"truncated checkpoint: header needs {header_len} bytes, "
                              f"{len(raw) - 12} present")
    try:
        header = json.loads(raw[12:offset])
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError("malformed checkpoint header: not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValidationError(
            f"checkpoint version {header.get('format_version')} not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    config = _header_config(header.get("config"))
    shapes = _header_shapes(header.get("tensors"), config)
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError("malformed checkpoint header: metadata is not an object")
    size = 8 * parameter_count(config)
    if len(raw) - offset != size:
        raise ValidationError(f"truncated or overlong checkpoint: tensors need {size} "
                              f"bytes, {len(raw) - offset} present")
    data = np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64, copy=False)
    if not np.isfinite(np.sum(data)):
        raise ValidationError("checkpoint holds non-finite parameters")
    return ParamStore(shapes, data), config, metadata


def _header_config(raw_config) -> GraphEncoderConfig:
    fields = [f.name for f in dataclasses.fields(GraphEncoderConfig)]
    if not isinstance(raw_config, dict) or sorted(raw_config) != sorted(fields):
        raise ValidationError(f"malformed checkpoint header: config needs exactly {fields}")
    for name in fields:
        if type(raw_config[name]) is not int:
            raise ValidationError(f"malformed checkpoint header: config.{name} "
                                  f"is {raw_config[name]!r}, not an integer")
    return GraphEncoderConfig(**raw_config)


def _header_shapes(entries, config: GraphEncoderConfig) -> dict[str, tuple[int, ...]]:
    """Tensor names and shapes in file order; they must be the config's, in
    sorted-name order."""
    if not isinstance(entries, list):
        raise ValidationError("malformed checkpoint header: tensors is not a list")
    # Every layer owns tensors, so this bounds the shape enumeration below
    # for an absurd layer count.
    if config.layers > len(entries):
        raise ValidationError("checkpoint tensor names or shapes do not match the config")
    shapes = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int for d in entry["shape"])):
            raise ValidationError(f"malformed checkpoint tensor entry {entry!r:.80}")
        shapes[entry["name"]] = tuple(entry["shape"])
    if len(shapes) != len(entries) or shapes != parameter_shapes(config):
        raise ValidationError("checkpoint tensor names or shapes do not match the config")
    if list(shapes) != sorted(shapes):
        raise ValidationError("checkpoint tensors are not in sorted-name order")
    return shapes
