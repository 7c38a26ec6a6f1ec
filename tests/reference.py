"""Frozen references that the vectorized code in ``tagsum`` is tested
against. Nothing here may change: the tests require exact equality with the
scalar loops, the per-seed corpus builder, the dict-sum inner loop, the
concatenating optimizer and the padded pair batch, and agreement within
1e-12 with ``query_major_mixing``, the encoder's attention sublayer before
it went key-major.

The composed-op oracle is the generic tape ops (``add``, ``sub``, ``mul``,
``tsum``, ``tmean``, ``transpose``, ``exp``, ``log``, ``logsumexp``) and the
two losses built from them, ``composed_contrastive_loss`` and
``composed_supervised_contrastive_loss``: each fused loss in
``tagsum.losses`` equals its composed loss bit for bit and its gradients
within 1e-12.
"""

import hashlib
import itertools
import json
from xml.sax.saxutils import escape

import numpy as np

import tagsum.autodiff as ad
from tagsum.autodiff import Tensor, as_tensor
from tagsum.corpus import split_node_text
from tagsum.encoder import PaddedBatch, encode_batch, subgraph_batch
from tagsum.errors import ValidationError
from tagsum.graphs import TextAttributedGraph, induced_subgraph, rwr_batch
from tagsum.losses import contrastive_loss_tensor
from tagsum.pretrain import InnerLoopResult, ascent_direction, block_norms, project_block
from tagsum.prompts import render_summary_prompt
from tagsum.synthetic import _NODE_VOCAB, CLASS_KEYWORDS


def _walk(neighbors, seed_node: int, restart_prob: float, draw):
    """Positions of a random walk with restart from the seed, one per
    transition. ``draw()`` returns the next uniform: one decides the restart,
    a second picks the neighbor. Dead ends restart unconditionally."""
    current = seed_node
    while True:
        if draw() < restart_prob:
            current = seed_node
        else:
            local = neighbors[current]
            current = int(local[int(draw() * len(local))]) if len(local) else seed_node
        yield current


def rwr_walk(
    graph: TextAttributedGraph,
    seed_node: int,
    restart_prob: float,
    num_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Positions visited after each of ``num_steps`` transitions from the seed."""
    walk = _walk(graph.neighbors, seed_node, restart_prob, rng.random)
    return np.fromiter(itertools.islice(walk, num_steps), dtype=np.int64, count=num_steps)


def loop_check_edges(num_nodes: int, edges) -> None:
    """``TextAttributedGraph``'s edge check one edge at a time: raises for
    the first self-loop, out-of-range, non-canonical or repeated edge."""
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValidationError(f"self-loop on node {u}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValidationError(f"edge ({u}, {v}) references a node out of range")
        if u > v:
            raise ValidationError(f"edge ({u}, {v}) not stored in canonical (u < v) order")
        if (u, v) in seen:
            raise ValidationError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))


def loop_canonical_edges(num_nodes: int, edges) -> tuple:
    """``TextAttributedGraph.from_edges``'s edge tuple one edge at a time:
    self-loops dropped, pairs as (min, max), deduplicated and sorted."""
    canonical = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValidationError(f"edge ({u}, {v}) references a node out of range")
        canonical.add((min(u, v), max(u, v)))
    return tuple(sorted(canonical))


def token_vector(token: str, dim: int) -> np.ndarray:
    """A hash-encoder token's vector from a generator of its own."""
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(seed)).standard_normal(dim)


def loop_encode(text: str, dim: int) -> np.ndarray:
    """``HashTextEncoder``'s embedding of one text: the token vectors added
    in text order into zeros, divided by the token count, then by the
    vector's norm."""
    tokens = text.split()
    if not tokens:
        raise ValidationError("cannot encode empty text")
    mean = np.zeros(dim)
    for token in tokens:
        mean += token_vector(token, dim)
    mean /= len(tokens)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero embedding")
    return mean / norm


def loop_synthetic_edges(num_nodes: int, labels, rng: np.random.Generator,
                         intra_edge_prob: float, inter_edge_prob: float) -> list:
    """The synthetic graph's edges with one scalar draw per node pair, in
    row-major (u, v > u) order."""
    edges = []
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            p = intra_edge_prob if labels[u] == labels[v] else inter_edge_prob
            if rng.random() < p:
                edges.append((u, v))
    return edges


def loop_synthetic_tag(
    num_nodes: int = 90,
    num_classes: int = 3,
    *,
    seed: int = 0,
    intra_edge_prob: float = 0.3,
    inter_edge_prob: float = 0.005,
    domain_tokens: tuple = (),
    graph_id: str = "synthetic",
) -> TextAttributedGraph:
    """``synthetic.make_synthetic_tag`` with one ``Generator.choice`` call per
    node and one block of draws per row of node pairs."""
    rng = np.random.default_rng(seed)
    labels = np.array([i % num_classes for i in range(num_nodes)], dtype=np.int64)

    suffix = (" " + " ".join(domain_tokens)) if domain_tokens else ""
    texts = []
    for i in range(num_nodes):
        vocab = _NODE_VOCAB[labels[i]]
        w1, w2 = rng.choice(len(vocab), size=2, replace=False)
        texts.append(f"paper on {vocab[w1]} {vocab[w2]} {vocab[w1]} methods v{i}{suffix}")

    prob = np.where(labels == np.arange(num_classes)[:, None], intra_edge_prob, inter_edge_prob)
    edges = []
    for u in range(num_nodes):
        draws = rng.random(num_nodes - u - 1)
        hits = np.flatnonzero(draws < prob[labels[u], u + 1:]) + u + 1
        edges.extend((u, int(v)) for v in hits)

    return TextAttributedGraph.from_edges(
        num_nodes, edges, texts,
        labels=labels,
        class_names=CLASS_KEYWORDS[:num_classes],
        graph_id=graph_id,
    )


def loop_adamw_step(optimizer_state: dict, tensors: dict, grads: dict, lr: float,
                    weight_decay: float, t: int) -> None:
    """Step ``t`` of decoupled-weight-decay Adam (beta 0.9 / 0.999, eps 1e-8),
    one named array at a time. ``optimizer_state`` maps name -> [m, v]."""
    beta1, beta2 = 0.9, 0.999
    for name in sorted(tensors):
        g = grads[name]
        m, v = optimizer_state.setdefault(name, [np.zeros_like(g), np.zeros_like(g)])
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        optimizer_state[name] = [m, v]
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        data = tensors[name]
        data -= lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + weight_decay * data)


class ConcatAdamW:
    """``pretrain.AdamW`` before it ran in place: one update per step over the
    concatenation of named arrays (sorted names), scattered back by name."""

    def __init__(self, tensors: dict, lr: float, weight_decay: float):
        self.tensors, self.lr, self.weight_decay = tensors, lr, weight_decay
        self.step_count = 0
        self._names = sorted(tensors)
        self._ends = np.cumsum([tensors[name].data.size for name in self._names]).tolist()
        self.m = np.zeros(self._ends[-1])
        self.v = np.zeros_like(self.m)

    def step(self, grads: dict) -> None:
        beta1, beta2 = 0.9, 0.999
        self.step_count += 1
        t = self.step_count
        g = np.concatenate([grads[name].ravel() for name in self._names])
        data = np.concatenate([self.tensors[name].data.ravel() for name in self._names])
        self.m = beta1 * self.m + (1 - beta1) * g
        self.v = beta2 * self.v + (1 - beta2) * (g * g)
        m_hat = self.m / (1 - beta1 ** t)
        v_hat = self.v / (1 - beta2 ** t)
        update = self.lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + self.weight_decay * data)
        for name, start, end in zip(self._names, [0] + self._ends, self._ends):
            target = self.tensors[name].data
            target -= update[start:end].reshape(target.shape)


def dict_sum_inner_maximize(store, config, batch, summary_embs, pert, temperature):
    """``pretrain.inner_maximize`` before the flat gradient buffer: every
    pass zeroes the store's gradients and copies them out by name, the
    copies are summed name by name, and each sum is divided by the step
    count. Returns an ``InnerLoopResult`` and those averages by name."""
    steps = pert.inner_steps if pert.epsilon > 0.0 else 1
    delta = np.zeros_like(batch.features)
    skipped = 0
    max_norm = 0.0
    for m in range(steps):
        leaf = Tensor(batch.features + delta, requires_grad=True)
        h, _ = encode_batch(store, config, batch, leaf)
        loss = contrastive_loss_tensor(h, Tensor(summary_embs), temperature)
        for tensor in store.tensors.values():
            tensor.grad[...] = 0.0
        loss.backward()
        grads = {name: store[name].grad.copy() for name in store.names()}
        final_loss, x_grad = loss.item(), leaf.grad
        if m == 0:
            first_loss, h_clean, accum = final_loss, h.data.copy(), grads
        else:
            accum = {name: accum[name] + g for name, g in grads.items()}
        skipped += int(np.sum(block_norms(x_grad, pert.norm_p) == 0.0))
        delta = project_block(delta + pert.alpha * ascent_direction(x_grad, pert.norm_p),
                              pert.epsilon, pert.norm_p)
        norms = block_norms(delta, pert.norm_p)
        max_norm = max(max_norm, float(norms.max()))
    return InnerLoopResult(
        first_loss=first_loss, final_loss=final_loss,
        clean_embeddings=h_clean, delta_blocks=delta, delta_norms=norms,
        max_block_norm=max_norm, skipped_zero_grad_steps=skipped,
    ), {name: g / steps for name, g in accum.items()}


def padded_materialize(pairs, graphs, sampler_cfg, config):
    """``pretrain.materialize_subgraphs`` before the node-id batch: every
    pair's features copied into one padded (P, n_max, text_dim) batch, one
    ``subgraph_batch`` per source graph."""
    groups = {}
    for row, pair in enumerate(pairs):
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


def loop_auc(scores, truth) -> float:
    """Exact ROC AUC with ties counted 0.5: a Python loop over the runs of
    tied sorted scores, each given its average 1-based rank."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    num_pos = int(truth.sum())
    num_neg = truth.size - num_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = ranks[truth].sum()
    return float((pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def query_major_mixing(x, adjacency, sizes, params, heads, grad):
    """The encoder's mixing sublayer LN1(x + local(x) + attn(x)) with the
    attention probabilities query-major, (B, heads, queries, keys), and
    layer-norm moments by row sums. Returns (output, dx, {name: gradient})
    for the upstream gradient ``grad``; ``params`` maps the unprefixed
    ``encoder.MIXING_PARAMS`` names to arrays."""
    b, n, hidden = x.shape
    head_dim = hidden // heads
    scale = 1.0 / np.sqrt(head_dim)
    real = np.arange(n) < np.asarray(sizes)[:, None]
    key_mask = np.where(real, 0.0, -np.inf)[:, None, None, :]

    def rows(a):
        return a.reshape(-1, a.shape[-1])

    neighbors = adjacency @ x
    local = (x @ params["local_self.weight"] + params["local_self.bias"]
             + neighbors @ params["local_neigh.weight"] + params["local_neigh.bias"])
    qkv_weight = np.concatenate([params[f"attn_{c}.weight"] for c in "qkv"], axis=1)
    qkv_bias = np.concatenate([params[f"attn_{c}.bias"] for c in "qkv"])
    q, k, v = ((x @ qkv_weight + qkv_bias).reshape(b, n, 3, heads, head_dim)
               .transpose(2, 0, 3, 1, 4))
    scores = q @ k.swapaxes(-1, -2) * scale + key_mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    context = (probs @ v).transpose(0, 2, 1, 3).reshape(b, n, hidden)
    attn = context @ params["attn_out.weight"] + params["attn_out.bias"]

    z = x + local + attn
    inv_width = 1.0 / hidden
    centered = z - z.sum(axis=-1, keepdims=True) * inv_width
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_width + 1e-5)
    normed = centered / std
    out = normed * params["norm1.gain"] + params["norm1.bias"]

    dnormed = grad * params["norm1.gain"]
    dz = (dnormed - dnormed.sum(axis=-1, keepdims=True) * inv_width
          - normed * ((dnormed * normed).sum(axis=-1, keepdims=True) * inv_width)) / std
    dcontext = (dz @ params["attn_out.weight"].T).reshape(b, n, heads, head_dim)
    dcontext = dcontext.transpose(0, 2, 1, 3)
    dprobs = dcontext @ v.swapaxes(-1, -2)
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True)) * scale
    dqkv = np.stack([dscores @ k, dscores.swapaxes(-1, -2) @ q,
                     probs.swapaxes(-1, -2) @ dcontext])
    dqkv = rows(dqkv.transpose(1, 3, 0, 2, 4).reshape(b, n, 3 * hidden))
    dqkv_weight, dqkv_bias = rows(x).T @ dqkv, dqkv.sum(axis=0)

    dz_rows = rows(dz)
    dparams = {
        "local_self.weight": rows(x).T @ dz_rows,
        "local_self.bias": dz_rows.sum(axis=0),
        "local_neigh.weight": rows(neighbors).T @ dz_rows,
        "local_neigh.bias": dz_rows.sum(axis=0),
        "attn_out.weight": rows(context).T @ dz_rows,
        "attn_out.bias": dz_rows.sum(axis=0),
        "norm1.gain": rows(grad * normed).sum(axis=0),
        "norm1.bias": rows(grad).sum(axis=0),
    }
    for i, c in enumerate("qkv"):
        dparams[f"attn_{c}.weight"] = dqkv_weight[:, i * hidden:(i + 1) * hidden]
        dparams[f"attn_{c}.bias"] = dqkv_bias[i * hidden:(i + 1) * hidden]
    dx = (dz + dz @ params["local_self.weight"].T
          + adjacency.swapaxes(-1, -2) @ (dz @ params["local_neigh.weight"].T)
          + (dqkv @ qkv_weight.T).reshape(b, n, hidden))
    return out, dx, dparams


def line_emit_graphml(sub, schema, node_texts) -> str:
    """The GraphML dialect written a line at a time, every value escaped
    where it is written."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<graphml>"]
    for key_id, name in schema.node_attr_keys:
        lines.append(f'<key id="{key_id}" for="node" attr.name="{name}" attr.type="string"/>')
    edge_id, edge_name = schema.edge_attr_key
    lines.append(f'<key id="{edge_id}" for="edge" attr.name="{edge_name}" attr.type="string"/>')
    lines.append('<graph id="G" edgedefault="undirected">')
    for i in range(sub.num_nodes):
        lines.append(f'    <node id="n{i}">')
        for key_id, name in schema.node_attr_keys:
            lines.append(f'            <data key="{key_id}">{escape(node_texts[name][i])}</data>')
        lines.append("    </node>")
    for k, (u, v) in enumerate(sub.edges):
        lines.append(f'    <edge id="e{k}" source="n{u}" target="n{v}">')
        lines.append(f'            <data key="{edge_id}" >{escape(schema.relation_word)}</data>')
        lines.append("    </edge>")
    lines.append("</graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def per_seed_document(graph, seed: int, sampler_cfg, schema, truncate_chars):
    """One seed's subgraph and GraphML document: its own walk, its own
    induced subgraph, and every node's text split and truncated for it."""
    node_ids = rwr_batch(graph, [seed], [sampler_cfg.rng_seed], sampler_cfg, None)[0]
    sub = induced_subgraph(graph, seed, node_ids, None)
    names = schema.attr_names
    texts = {name: [] for name in names}
    for g in sub.global_ids:
        for name, part in zip(names, split_node_text(graph.raw_text[g], len(names))):
            texts[name].append(part if truncate_chars is None else part[:truncate_chars])
    return sub, line_emit_graphml(sub, schema, texts)


def per_seed_corpus(graph, seeds, sampler_cfg, schema, domain, truncate_chars, client):
    """The summary prompt of every seed inside the graph, in seed order, and
    the pair sink's bytes when ``client`` answers each prompt at once."""
    prompts, sink = [], ""
    for seed in seeds:
        if not 0 <= seed < graph.num_nodes:
            continue
        sub, doc = per_seed_document(graph, seed, sampler_cfg, schema, truncate_chars)
        prompt = render_summary_prompt(doc, domain, sub.center_local_id)
        summary = client.complete(prompt)
        prompts.append(prompt)
        sink += json.dumps({"domain": domain, "graph_id": graph.graph_id, "sampler_seed":
                            sampler_cfg.rng_seed, "seed_id": seed, "summary": summary,
                            "token_count": len(summary.split())}, sort_keys=True) + "\n"
    return prompts, sink.encode("utf-8")


def _node(data, *pairs) -> Tensor:
    """A tape node over ``(parent, gradient map)`` pairs: backward hands each
    parent its map of the incoming gradient."""
    return Tensor(data, _parents=tuple(p for p, _ in pairs),
                  _backward=lambda grad: [(p, to_parent(grad)) for p, to_parent in pairs])


def _broadcast_pair(a, b, data, da, db) -> Tensor:
    """A node of two broadcast operands; ``da`` and ``db`` map the incoming
    gradient to each operand's before it is summed back to its shape."""
    return _node(data, (a, lambda g: ad._unbroadcast(da(g), a.data.shape)),
                 (b, lambda g: ad._unbroadcast(db(g), b.data.shape)))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _broadcast_pair(a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _broadcast_pair(a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _broadcast_pair(a, b, a.data * b.data, lambda g: g * b.data, lambda g: g * a.data)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    kept = axis is None or keepdims
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a, lambda g: np.ascontiguousarray(
        np.broadcast_to(g if kept else np.expand_dims(g, axis), a.data.shape))))


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), as_tensor(1.0 / count))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.transpose(axes), (a, lambda g: g.transpose(np.argsort(axes))))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _node(out, (a, lambda g: g * out))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a, lambda g: g / a.data))


def logsumexp(a, axis=-1, keepdims=False) -> Tensor:
    """log(sum(exp(a))) along one axis; the max shift is exact, not approximate."""
    a = as_tensor(a)
    shift = a.data.max(axis=axis, keepdims=True)
    out = add(log(tsum(exp(sub(a, as_tensor(shift))), axis=axis, keepdims=True)),
              as_tensor(shift))
    if not keepdims:
        out = ad.reshape(out, tuple(d for i, d in enumerate(out.data.shape)
                                    if i != (axis % out.data.ndim)))
    return out


def composed_contrastive_loss(h: Tensor, u: Tensor, temperature: float) -> Tensor:
    """``losses.contrastive_loss_tensor`` built from generic tape ops."""
    batch = h.data.shape[0]
    h_sq = tsum(mul(h, h), axis=1, keepdims=True)
    u_sq = ad.reshape(tsum(mul(u, u), axis=1, keepdims=True), (1, batch))
    dists = sub(add(h_sq, u_sq), mul(ad.matmul(h, transpose(u, (1, 0))), as_tensor(2.0)))
    sims = mul(dists, as_tensor(-1.0 / temperature))
    diag = tsum(mul(sims, Tensor(np.eye(batch))), axis=1)
    rows = tmean(sub(logsumexp(sims, axis=1), diag))
    cols = tmean(sub(logsumexp(transpose(sims, (1, 0)), axis=1), diag))
    return mul(add(rows, cols), as_tensor(0.5))


def composed_supervised_contrastive_loss(z: Tensor, labels, label_embeddings,
                                         temperature: float) -> Tensor:
    """``losses.supervised_contrastive_loss_tensor`` built from generic tape
    ops, without its input checks."""
    labels = np.asarray(labels)
    batch, num_classes = z.data.shape[0], label_embeddings.shape[0]
    inv_t = as_tensor(1.0 / temperature)
    sims_zu = mul(ad.matmul(z, Tensor(label_embeddings.T)), inv_t)     # (B, C)
    sims_zz = mul(ad.matmul(z, transpose(z, (1, 0))), inv_t)           # (B, B)
    logits = ad.concat([sims_zu, sims_zz], axis=1)                     # (B, C + B)
    self_mask = np.zeros((batch, num_classes + batch))
    self_mask[np.arange(batch), num_classes + np.arange(batch)] = -1e9
    logits = add(logits, Tensor(self_mask))

    positives = np.zeros((batch, num_classes + batch))
    positives[np.arange(batch), labels] = 1.0
    same = (labels[:, None] == labels[None, :]) & ~np.eye(batch, dtype=bool)
    positives[:, num_classes:] = same.astype(np.float64)
    counts = positives.sum(axis=1)

    log_prob = sub(logits, logsumexp(logits, axis=1, keepdims=True))
    per_anchor = mul(tsum(mul(log_prob, Tensor(positives)), axis=1), Tensor(-1.0 / counts))
    return tmean(per_anchor)


def subtracted_mask_supervised_loss(z: np.ndarray, labels, label_embeddings: np.ndarray,
                                    temperature: float) -> tuple[float, np.ndarray]:
    """``losses.supervised_contrastive_loss_tensor`` when it masked each
    anchor's self column by subtracting 1e9: (loss, dL/dz). Below a
    temperature of about 1e-9 the logits outgrow that mask."""
    labels = np.asarray(labels)
    batch, num_classes = z.shape[0], label_embeddings.shape[0]
    inv_t = 1.0 / temperature
    rows = np.arange(batch)
    logits = np.concatenate([(z @ label_embeddings.T) * inv_t, (z @ z.T) * inv_t], axis=1)
    logits[rows, num_classes + rows] -= 1e9
    positives = np.zeros((batch, num_classes + batch))
    positives[rows, labels] = 1.0
    positives[:, num_classes:] = (labels[:, None] == labels) & ~np.eye(batch, dtype=bool)
    counts = positives.sum(axis=1)
    shift = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=1, keepdims=True)
    log_prob = logits - (np.log(total) + shift)
    loss = np.sum((log_prob * positives).sum(axis=1) * (-1.0 / counts)) * (1.0 / batch)
    ds = (e / total - positives / counts[:, None]) * (inv_t / batch)
    ds_label, ds_anchor = ds[:, :num_classes], ds[:, num_classes:]
    return float(loss), ds_label @ label_embeddings + (ds_anchor + ds_anchor.T) @ z
