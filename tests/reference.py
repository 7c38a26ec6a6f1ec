"""Frozen references that the vectorized code in ``tagsum`` is tested
against. Nothing here may change: the tests require exact equality with the
scalar loops and the per-seed corpus builder, and agreement within 1e-12
with ``query_major_mixing``, the encoder's attention sublayer before it went
key-major.
"""

import itertools
import json
from xml.sax.saxutils import escape

import numpy as np

from tagsum.corpus import split_node_text
from tagsum.graphs import TextAttributedGraph, induced_subgraph, rwr_batch
from tagsum.prompts import render_summary_prompt


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
