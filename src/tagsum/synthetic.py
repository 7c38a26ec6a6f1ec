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

import numbers

import numpy as np

from .corpus import GraphSummaryPair, token_count
from .errors import ValidationError
from .graphs import TextAttributedGraph

CLASS_KEYWORDS = ("databases", "robotics", "genomics")
# Keyword-heavy descriptions keep the label sentences nearly orthogonal
# across classes; shared filler there would add a common component that
# dominates similarity gradients without separating anything.
CLASS_DESCRIPTIONS = tuple(f"{word} {word} studies" for word in CLASS_KEYWORDS)
LABEL_TEMPLATE = "{class} {class_desc}"

# Per-class node vocabularies, disjoint from the class keywords above. Five
# words each: `_word_picks` decodes choices from five.
_NODE_VOCAB = (
    ("sql", "tables", "queries", "indexes", "transactions"),
    ("actuators", "sensors", "kinematics", "gears", "manipulators"),
    ("genome", "sequencing", "alleles", "proteins", "chromosomes"),
)


# Pair draws per block: the edge pass holds one such buffer of doubles.
_PAIR_BLOCK = 16_384


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

    Node i draws its two words as ``rng.choice(5, 2, replace=False)`` would,
    node by node; then every pair (u, v > u) draws one double in row-major
    order and is an edge when that double is below its class-pair
    probability. The draws come in bulk, but the stream and hence the graph
    are those of the one-at-a-time draws.
    """
    _check_count("num_nodes", num_nodes, 0)
    _check_count("num_classes", num_classes, 1, len(CLASS_KEYWORDS))
    _check_probability("intra_edge_prob", intra_edge_prob)
    _check_probability("inter_edge_prob", inter_edge_prob)
    rng = np.random.default_rng(seed)
    labels = np.arange(num_nodes, dtype=np.int64) % num_classes

    first, second = _word_picks(rng.bit_generator, num_nodes)
    suffix = (" " + " ".join(domain_tokens)) if domain_tokens else ""
    phrases = [[f"paper on {a} {b} {a} methods v" for a in vocab for b in vocab]
               for vocab in _NODE_VOCAB]
    picks = first * 5 + second
    texts = [f"{phrases[label][pick]}{i}{suffix}"
             for i, (label, pick) in enumerate(zip(labels.tolist(), picks.tolist()))]

    edges = _pair_edges(rng, labels, intra_edge_prob, inter_edge_prob)
    return TextAttributedGraph.from_edges(
        num_nodes, edges, texts,
        labels=labels,
        class_names=CLASS_KEYWORDS[:num_classes],
        graph_id=graph_id,
    )


def _check_count(name: str, value, low: int, high: int | None = None) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise ValidationError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_probability(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must be a probability in [0, 1], got {value!r}")


def _halves(bit_generator, num_words: int) -> np.ndarray:
    """32-bit halves of the next ``num_words`` raw words, low half first: the
    order in which numpy serves 32-bit draws."""
    words = bit_generator.random_raw(num_words)
    return np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()


def _word_picks(bit_generator, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (first, second) word indices of ``num_nodes`` successive calls of
    ``Generator.choice(5, 2, replace=False)``, and the stream left where
    those calls leave it.

    Each call is Floyd's algorithm over 32-bit draws: a Lemire draw in
    [0, 4), one in [0, 5) that becomes 4 when it repeats the first, and one
    in [0, 2) that swaps the pair when it is 0. Lemire's multiply-shift
    rejects only a zero half on the 5-way draw (2**32 is 1 mod 5), which then
    takes the next half and shifts every later node by one half.
    """
    four = 3 * np.arange(num_nodes, dtype=np.int64)     # each node's 4-way half
    five = four + 1
    halves = _halves(bit_generator, (3 * num_nodes + 1) // 2)
    while num_nodes:
        missing = (int(five[-1]) + 3) // 2 - len(halves) // 2   # words up to the last 2-way half
        if missing > 0:
            halves = np.concatenate([halves, _halves(bit_generator, missing)])
        rejected = np.flatnonzero(halves[five] == 0)
        if not len(rejected):
            break
        node = int(rejected[0])
        five[node:] += 1
        four[node + 1:] += 1
    first = (halves[four] * 4) >> 32
    second = (halves[five] * 5) >> 32
    second[second == first] = 4
    keep = (halves[five + 1] >> 31).astype(bool)         # the [0, 2) draw is the top bit
    return np.where(keep, first, second), np.where(keep, second, first)


def _pair_edges(rng: np.random.Generator, labels: np.ndarray, intra: float,
                inter: float) -> list[tuple[int, int]]:
    """Canonical, sorted edges from one double per pair (u, v > u), drawn in
    row-major order in blocks of ``_PAIR_BLOCK`` into one buffer. Only draws
    below the larger probability are mapped back to their pair."""
    n = len(labels)
    rows = np.arange(n, dtype=np.int64)
    row_starts = rows * (n - 1) - rows * (rows - 1) // 2   # flat index of (u, u + 1)
    total = n * (n - 1) // 2
    bound = max(intra, inter)
    buffer = np.empty(min(total, _PAIR_BLOCK))
    us, vs = [], []
    for start in range(0, total, _PAIR_BLOCK):
        draws = buffer[:min(_PAIR_BLOCK, total - start)]
        rng.random(out=draws)
        local = np.flatnonzero(draws < bound)
        flat = local + start
        u = np.searchsorted(row_starts, flat, side="right") - 1
        v = flat - row_starts[u] + u + 1
        hit = draws[local] < np.where(labels[u] == labels[v], intra, inter)
        us.append(u[hit])
        vs.append(v[hit])
    if not us:
        return []
    return list(zip(np.concatenate(us).tolist(), np.concatenate(vs).tolist()))


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
