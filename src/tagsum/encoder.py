"""Trainable graph encoder: a local/global two-branch transformer stack.

Each layer sums three terms — the residual stream, a local branch (two
linear maps over the node state and its degree-normalized neighbor mean),
and a global multi-head self-attention branch over all subgraph nodes —
then layer-normalizes and applies a 2x-width feed-forward block with a
second normalization. Node states are mean-pooled, projected to the text
dimension, and L2-normalized, so graph and summary embeddings live on the
same unit sphere. A minibatch is encoded on one tape as a zero-padded,
masked batch; a single subgraph is a batch of one.

Positional encodings are concatenated to the node features at the input
projection. Parameters live in a ``ParamStore`` of named float64 tensors,
each with one gradient slot.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError, ValidationError
from .graphs import (
    EgoSubgraph,
    SamplerConfig,
    TextAttributedGraph,
    batched_rwpe,
    degree_normalized,
    induced_edges,
    rwr_nodes,
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
    """Named float64 parameter tensors, each with one gradient slot."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    @classmethod
    def initialize(cls, config: GraphEncoderConfig, seed: int = 0) -> "ParamStore":
        """Uniform init scaled by 1/sqrt(fan_in) for weights; zeros for biases;
        ones for norm gains. Deterministic given the seed."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        tensors = {}
        for name, shape in parameter_shapes(config).items():
            if name.endswith(".weight"):
                bound = 1.0 / np.sqrt(shape[0])
                data = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(".gain"):
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def zero_grads(self) -> None:
        for tensor in self.tensors.values():
            tensor.zero_grad()

    def gradients(self) -> dict[str, np.ndarray]:
        return {name: self.tensors[name].grad.copy() for name in self.names()}

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for name in self.names():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.tensors[name].data).tobytes())
        return digest.hexdigest()


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


def sample_batch(
    config: GraphEncoderConfig,
    graph: TextAttributedGraph,
    nodes,
    sampler_cfg: SamplerConfig,
    excluded=None,
) -> PaddedBatch:
    """Sample each node's ego-subgraph and stack them, with positional
    encodings, into one padded batch built straight from the graph.

    Every field equals ``pad_batch(config, [with_positional_encodings(
    rwr_sample(graph, node, sampler_cfg, exclude), config.positional_dim)])``
    over the nodes; only the walks run per node. ``excluded[i]`` is an edge
    left out when sampling ``nodes[i]``, or None.
    """
    if graph.features is None or graph.features.shape[1] != config.text_dim:
        shape = None if graph.features is None else graph.features.shape
        raise ShapeError(f"graph features: expected (n, {config.text_dim}), got {shape}")
    if excluded is None:
        excluded = [None] * len(nodes)
    node_sets = [rwr_nodes(graph, int(node), sampler_cfg, exclude)
                 for node, exclude in zip(nodes, excluded)]
    sizes = np.array([len(ids) for ids in node_sets])
    b, n = len(node_sets), int(sizes.max())
    real = np.arange(n) < sizes[:, None]
    features = np.zeros((b, n, config.text_dim))
    features[real] = graph.features[np.concatenate(node_sets)]
    which, local_u, local_v = induced_edges(graph, node_sets, excluded)
    adjacency = np.zeros((b, n, n))
    adjacency[which, local_u, local_v] = adjacency[which, local_v, local_u] = 1.0
    neighbor_mean = degree_normalized(adjacency)
    positional = batched_rwpe(neighbor_mean, sizes, config.positional_dim)
    return PaddedBatch(features, positional, neighbor_mean, sizes)


def encode_batch(
    store: ParamStore,
    config: GraphEncoderConfig,
    batch: PaddedBatch,
    x_input: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Forward pass over a padded batch on one tape. Returns (unit-norm
    embeddings (B, d), feature tensor (B, n_max, d)), by default a grad-enabled
    leaf over ``batch.features``.

    Padded slots never reach a real node: a -inf key mask hides them from
    attention, their neighbor-mean weight is zero, and pooling skips them, so
    their input values are ignored and get exactly zero gradient."""
    if x_input is None:
        x_input = Tensor(batch.features, requires_grad=True)
    if x_input.data.shape != batch.features.shape:
        raise ShapeError(f"input features: expected {batch.features.shape}, "
                         f"got {x_input.data.shape}")

    b, n, _ = batch.features.shape
    heads, hidden = config.heads, config.hidden
    head_dim = hidden // heads
    scale = 1.0 / np.sqrt(head_dim)
    real = np.arange(n) < batch.sizes[:, None]                      # (B, n_max)
    key_mask = Tensor(np.where(real, 0.0, -np.inf)[:, None, None, :])

    pos = Tensor(batch.positional)
    h = ad.concat([x_input, pos], axis=2) @ store["input.weight"] + store["input.bias"]
    neighbor_mean = Tensor(batch.neighbor_mean)

    def split_heads(t: Tensor) -> Tensor:                           # (B, heads, n, hd)
        return ad.transpose(ad.reshape(t, (b, n, heads, head_dim)), (0, 2, 1, 3))

    for i in range(config.layers):
        p = f"layer{i}."
        local = (
            h @ store[p + "local_self.weight"] + store[p + "local_self.bias"]
            + (neighbor_mean @ h) @ store[p + "local_neigh.weight"]
            + store[p + "local_neigh.bias"]
        )

        q = split_heads(h @ store[p + "attn_q.weight"] + store[p + "attn_q.bias"])
        k = split_heads(h @ store[p + "attn_k.weight"] + store[p + "attn_k.bias"])
        v = split_heads(h @ store[p + "attn_v.weight"] + store[p + "attn_v.bias"])
        scores = ad.mul(q @ ad.transpose(k, (0, 1, 3, 2)), ad.as_tensor(scale)) + key_mask
        context = ad.softmax(scores) @ v
        context = ad.reshape(ad.transpose(context, (0, 2, 1, 3)), (b, n, hidden))
        attn = context @ store[p + "attn_out.weight"] + store[p + "attn_out.bias"]

        h = ad.layer_norm(h + local + attn, store[p + "norm1.gain"], store[p + "norm1.bias"])
        ff = ad.gelu(h @ store[p + "ffn1.weight"] + store[p + "ffn1.bias"])
        ff = ff @ store[p + "ffn2.weight"] + store[p + "ffn2.bias"]
        h = ad.layer_norm(h + ff, store[p + "norm2.gain"], store[p + "norm2.bias"])

    pooled = ad.mul(ad.tsum(ad.mul(h, Tensor(real[:, :, None])), axis=1),
                    Tensor(1.0 / batch.sizes[:, None]))
    projected = pooled @ store["proj.weight"] + store["proj.bias"]
    return ad.l2_normalize(projected), x_input


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
    """Binary checkpoint: magic, version, JSON header, row-major float64 blobs.

    Byte-deterministic for identical tensors and metadata.
    """
    names = store.names()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "layers": config.layers,
            "hidden": config.hidden,
            "heads": config.heads,
            "positional_dim": config.positional_dim,
            "text_dim": config.text_dim,
        },
        "metadata": metadata or {},
        "tensors": [
            {"name": name, "shape": list(store[name].data.shape)} for name in names
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for name in names:
            handle.write(np.ascontiguousarray(store[name].data).astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ParamStore, GraphEncoderConfig, dict]:
    """Load a checkpoint; rejects unknown magic, mismatched versions, and
    truncated or overlong files."""
    raw = Path(path).read_bytes()
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
    tensors = {}
    for name, shape in shapes.items():
        size = math.prod(shape) * 8
        if offset + size > len(raw):
            raise ValidationError(f"truncated checkpoint: tensor {name!r} needs "
                                  f"{size} bytes, {len(raw) - offset} present")
        data = np.frombuffer(raw[offset:offset + size], dtype="<f8").reshape(shape)
        tensors[name] = Tensor(data.copy(), requires_grad=True)
        offset += size
    if offset != len(raw):
        raise ValidationError(f"checkpoint has {len(raw) - offset} trailing bytes")
    return ParamStore(tensors), config, metadata


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
    """Tensor names and shapes in file order; they must be the config's."""
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
    return shapes
