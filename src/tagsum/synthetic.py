"""Synthetic separable text-attributed graphs for end-to-end tests.

Nodes belong to one of a few topic classes. Node texts draw on per-class
vocabularies that are disjoint from the class keywords, while summaries and
label sentences share the keywords: a randomly initialized encoder therefore
scores at chance (node features and label embeddings live in unrelated
hash directions), and good zero-shot accuracy is evidence that pretraining
actually learned the vocabulary-to-keyword correspondence. Edges are
homophilous; summaries carry per-node marker tokens so individual pairs stay
separable for the contrastive objective.
"""

from __future__ import annotations

import numpy as np

from .corpus import GraphSummaryPair, token_count
from .graphs import TextAttributedGraph

CLASS_KEYWORDS = ("databases", "robotics", "genomics")
# Keyword-heavy descriptions keep the label sentences nearly orthogonal
# across classes; shared filler there would add a common component that
# dominates similarity gradients without separating anything.
CLASS_DESCRIPTIONS = tuple(f"{word} {word} studies" for word in CLASS_KEYWORDS)
LABEL_TEMPLATE = "{class} {class_desc}"

# Per-class node vocabularies, disjoint from the class keywords above.
_NODE_VOCAB = (
    ("sql", "tables", "queries", "indexes", "transactions"),
    ("actuators", "sensors", "kinematics", "gears", "manipulators"),
    ("genome", "sequencing", "alleles", "proteins", "chromosomes"),
)


def make_synthetic_tag(
    num_nodes: int = 90,
    num_classes: int = 3,
    *,
    seed: int = 0,
    intra_edge_prob: float = 0.3,
    inter_edge_prob: float = 0.005,
    domain_tokens: tuple[str, ...] = (),
    graph_id: str = "synthetic",
) -> TextAttributedGraph:
    """Homophilous TAG whose node texts cluster by class vocabulary.

    ``domain_tokens`` are appended to every node text: a constant domain bias
    in feature space that a shared prompt vector can learn to cancel.
    """
    if num_classes > len(CLASS_KEYWORDS):
        raise ValueError(f"at most {len(CLASS_KEYWORDS)} classes supported")
    rng = np.random.default_rng(seed)
    labels = np.array([i % num_classes for i in range(num_nodes)], dtype=np.int64)

    suffix = (" " + " ".join(domain_tokens)) if domain_tokens else ""
    texts = []
    for i in range(num_nodes):
        vocab = _NODE_VOCAB[labels[i]]
        w1, w2 = rng.choice(len(vocab), size=2, replace=False)
        texts.append(f"paper on {vocab[w1]} {vocab[w2]} {vocab[w1]} methods v{i}{suffix}")

    # One draw per pair (u, v > u) in row-major order; a row's draws come in
    # one call, which yields the same values as scalar draws. Rows reuse two
    # buffers: fresh arrays of every row length would linger in numpy's
    # small-buffer cache after the call.
    prob = np.where(labels == np.arange(num_classes)[:, None], intra_edge_prob, inter_edge_prob)
    draws = np.empty(num_nodes)
    hits = np.empty(num_nodes, dtype=bool)
    edges = []
    for u in range(num_nodes):
        k = num_nodes - u - 1
        rng.random(out=draws[:k])
        np.less(draws[:k], prob[labels[u], u + 1:], out=hits[:k])
        edges.extend((u, v) for v in (np.flatnonzero(hits[:k]) + u + 1).tolist())

    return TextAttributedGraph.from_edges(
        num_nodes, edges, texts,
        labels=labels,
        class_names=CLASS_KEYWORDS[:num_classes],
        graph_id=graph_id,
    )


def summary_for_node(graph: TextAttributedGraph, node: int) -> str:
    """Class-correlated summary with a per-node marker token."""
    word = graph.class_names[int(graph.labels[node])]
    return (
        f"the subgraph centers on {word} research and the neighborhood "
        f"also studies {word} topics marker{node} ref{graph.graph_id}"
    )


def make_synthetic_pairs(
    graph: TextAttributedGraph,
    seeds,
    sampler_seed: int = 0,
    domain: str = "academic",
) -> list[GraphSummaryPair]:
    pairs = []
    for node in seeds:
        summary = summary_for_node(graph, int(node))
        pairs.append(GraphSummaryPair(
            graph_id=graph.graph_id,
            seed_id=int(node),
            sampler_seed=sampler_seed,
            domain=domain,
            summary=summary,
            token_count=token_count(summary),
        ))
    return pairs
