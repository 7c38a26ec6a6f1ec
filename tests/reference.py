"""Frozen scalar references that the vectorized code in ``tagsum`` is tested
against. Nothing here may change: the tests require exact equality with it.
"""

import itertools

import numpy as np

from tagsum.graphs import TextAttributedGraph


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
