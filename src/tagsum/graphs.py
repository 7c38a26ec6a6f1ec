"""Text-attributed graphs, ego-subgraph sampling, and positional encodings.

A text-attributed graph (TAG) stores one raw text string per node plus an
undirected edge list. Local structure is consumed as ego-subgraphs produced
by a random-walk-with-restart sampler; each subgraph can carry dense node
features and random-walk positional encodings.

File format (``load_graph`` / ``save_graph``), UTF-8 throughout::

    <num_nodes>
    <id>\\t<label-or-dash>\\t<raw text>     # one line per node, ids 0..N-1
    <u>\\t<v>                               # one line per undirected edge

A label of ``-`` marks an unlabeled node. Class names are the sorted set of
distinct labels; per-node label ids index into that list (-1 = unlabeled).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_MASK64 = (1 << 64) - 1
# Uniforms drawn per refill of a walk's generator (see ``_uniforms``).
_UNIFORM_BLOCK = 64


def _freeze(array: np.ndarray | None) -> np.ndarray | None:
    if array is not None:
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TextAttributedGraph:
    """Undirected graph with per-node free text and optional features/labels."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    raw_text: tuple[str, ...]
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    class_names: tuple[str, ...] | None = None
    graph_id: str = "graph"

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValidationError("num_nodes must be nonnegative")
        if len(self.raw_text) != self.num_nodes:
            raise ValidationError(
                f"raw_text has {len(self.raw_text)} entries for {self.num_nodes} nodes"
            )
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop on node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValidationError(f"edge ({u}, {v}) references a node out of range")
            if u > v:
                raise ValidationError(f"edge ({u}, {v}) not stored in canonical (u < v) order")
            if (u, v) in seen:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.features is not None:
            if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
                raise ValidationError(
                    f"features shape {self.features.shape} does not match {self.num_nodes} nodes"
                )
            _freeze(self.features)
        if self.labels is not None:
            if len(self.labels) != self.num_nodes:
                raise ValidationError("labels length does not match num_nodes")
            _freeze(self.labels)

    @classmethod
    def from_edges(cls, num_nodes, edges, raw_text, **kwargs) -> "TextAttributedGraph":
        """Build a graph from an arbitrary edge list: dedups, drops self-loops,
        canonicalizes orientation, and sorts."""
        canonical = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValidationError(f"edge ({u}, {v}) references a node out of range")
            canonical.add((min(u, v), max(u, v)))
        return cls(
            num_nodes=num_nodes,
            edges=tuple(sorted(canonical)),
            raw_text=tuple(raw_text),
            **kwargs,
        )

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists in compressed rows ``(indptr, indices)``: node v's
        sorted neighbors are ``indices[indptr[v]:indptr[v + 1]]``."""
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.num_nodes), out=indptr[1:])
        return _freeze(indptr), _freeze(dst[np.lexsort((dst, src))])

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, ...]:
        """Sorted neighbor array per node (views into ``csr``)."""
        indptr, indices = self.csr
        return tuple(indices[indptr[v]:indptr[v + 1]] for v in range(self.num_nodes))

    def without_edge(self, u: int, v: int) -> "TextAttributedGraph":
        """Copy of the graph with one undirected edge removed."""
        key = (min(u, v), max(u, v))
        if key not in set(self.edges):
            raise ValidationError(f"edge {key} not present")
        return dataclasses.replace(
            self, edges=tuple(e for e in self.edges if e != key)
        )


@dataclass(frozen=True)
class EgoSubgraph:
    """Induced subgraph rooted at a center node.

    ``global_ids`` maps local node index -> id in the parent graph. Edges are
    local-index pairs in canonical (u < v) order. ``positional`` is filled by
    :func:`with_positional_encodings`.
    """

    center_local_id: int
    global_ids: tuple[int, ...]
    features: np.ndarray
    edges: tuple[tuple[int, int], ...]
    positional: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.global_ids)
        if len(set(self.global_ids)) != n:
            raise ValidationError("global_ids are not unique")
        if not 0 <= self.center_local_id < n:
            raise ValidationError(f"center_local_id {self.center_local_id} out of range")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError(
                f"features shape {self.features.shape} does not match {n} nodes"
            )
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n) or u >= v:
                raise ValidationError(f"bad local edge ({u}, {v})")
        if self.positional is not None and self.positional.shape[0] != n:
            raise ValidationError("positional encoding row count does not match node count")
        _freeze(self.features)
        _freeze(self.positional)

    @property
    def num_nodes(self) -> int:
        return len(self.global_ids)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency over local indices."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        if self.edges:
            u, v = np.array(self.edges).T
            a[u, v] = a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class SamplerConfig:
    """Random-walk-with-restart sampler parameters."""

    restart_prob: float = 0.5
    node_budget: int = 16
    max_steps: int = 256
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.restart_prob < 1.0:
            raise ValidationError("restart_prob must lie in (0, 1)")
        if self.node_budget < 1:
            raise ValidationError("node_budget must be >= 1")
        if self.max_steps < self.node_budget:
            raise ValidationError("max_steps must be >= node_budget")


def load_graph(path) -> TextAttributedGraph:
    """Read the edge-list-with-text format documented in the module docstring."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    if not lines:
        raise ParseError("empty file", line=1)
    try:
        num_nodes = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected node count, got {lines[0]!r}", line=1) from None
    if num_nodes < 0:
        raise ParseError("node count must be nonnegative", line=1)
    if len(lines) < 1 + num_nodes:
        raise ParseError(
            f"expected {num_nodes} node lines, file ends early", line=len(lines)
        )

    texts: list[str | None] = [None] * num_nodes
    raw_labels: list[str | None] = [None] * num_nodes
    for i in range(num_nodes):
        lineno = 2 + i
        parts = lines[1 + i].split("\t", 2)
        if len(parts) != 3:
            raise ParseError(
                f"node line needs 'id<TAB>label<TAB>text', got {lines[1 + i]!r}",
                line=lineno,
            )
        try:
            node_id = int(parts[0])
        except ValueError:
            raise ParseError(f"bad node id {parts[0]!r}", line=lineno) from None
        if not 0 <= node_id < num_nodes:
            raise ValidationError(f"line {lineno}: node id {node_id} out of range")
        if texts[node_id] is not None:
            raise ValidationError(f"line {lineno}: node id {node_id} declared twice")
        texts[node_id] = parts[2]
        raw_labels[node_id] = parts[1]

    edges = []
    for offset, line in enumerate(lines[1 + num_nodes:]):
        lineno = 2 + num_nodes + offset
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"edge line needs 'u<TAB>v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge endpoints {line!r}", line=lineno) from None
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValidationError(f"line {lineno}: edge ({u}, {v}) references unknown node")
        edges.append((u, v))

    names = sorted({lab for lab in raw_labels if lab not in (None, "-")})
    labels = None
    class_names = None
    if names:
        index = {name: i for i, name in enumerate(names)}
        labels = np.array(
            [index.get(lab, -1) if lab is not None else -1 for lab in raw_labels],
            dtype=np.int64,
        )
        class_names = tuple(names)

    return TextAttributedGraph.from_edges(
        num_nodes,
        edges,
        [t if t is not None else "" for t in texts],
        labels=labels,
        class_names=class_names,
        graph_id=path.stem,
    )


def save_graph(graph: TextAttributedGraph, path) -> None:
    """Write a graph in the edge-list-with-text format."""
    path = Path(path)
    lines = [str(graph.num_nodes)]
    for i in range(graph.num_nodes):
        label = "-"
        if graph.labels is not None and graph.labels[i] >= 0 and graph.class_names:
            label = graph.class_names[int(graph.labels[i])]
        text = graph.raw_text[i].replace("\t", " ").replace("\n", " ")
        lines.append(f"{i}\t{label}\t{text}")
    for u, v in graph.edges:
        lines.append(f"{u}\t{v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sampler_rng(cfg: SamplerConfig, seed_node: int) -> np.random.Generator:
    # Mixing the seed node in keeps per-node streams independent while the
    # (graph, seed, cfg) -> subgraph map stays a pure function.
    entropy = np.random.SeedSequence([cfg.rng_seed & _MASK64, seed_node])
    return np.random.Generator(np.random.PCG64(entropy))


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


class _PrunedNeighbors:
    """A graph's neighbor arrays with one undirected edge removed.

    Only the two endpoints get new arrays (O(degree)); every other node reads
    the graph's cached ones. The arrays equal those of
    ``graph.without_edge(u, v).neighbors``.
    """

    __slots__ = ("_base", "_pruned")

    def __init__(self, graph: TextAttributedGraph, edge: tuple[int, int]):
        u, v = int(edge[0]), int(edge[1])
        base = graph.neighbors
        if not (0 <= u < graph.num_nodes and 0 <= v < graph.num_nodes) \
                or not np.any(base[u] == v):
            raise ValidationError(f"edge {(min(u, v), max(u, v))} not present")
        self._base = base
        self._pruned = {u: base[u][base[u] != v], v: base[v][base[v] != u]}

    def __getitem__(self, node: int) -> np.ndarray:
        pruned = self._pruned.get(node)
        return self._base[node] if pruned is None else pruned


def _uniforms(rng: np.random.Generator):
    """The generator's uniform stream, drawn ``_UNIFORM_BLOCK`` at a time.

    ``rng.random(k)`` yields the same values as k scalar draws, so blocks
    change no walk; they only bound how far ahead of it the generator runs.
    """
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def rwr_nodes(
    graph: TextAttributedGraph,
    seed_node: int,
    cfg: SamplerConfig,
    exclude: tuple[int, int] | None = None,
) -> tuple[int, ...]:
    """Sorted node ids visited by a random walk with restart from the seed.

    The walk runs until ``node_budget`` distinct nodes were visited or
    ``max_steps`` transitions elapsed, and always contains the seed. It is
    ``rwr_walk`` on the per-node generator ``_sampler_rng(cfg, seed_node)``,
    cut at the budget. Deterministic given (graph, seed_node, cfg).

    ``exclude`` names an edge of the graph to leave out: the walk is exactly
    that on ``graph.without_edge(*exclude)``, without copying the graph.
    """
    if graph.num_nodes == 0:
        raise ValidationError("cannot sample from an empty graph")
    if not 0 <= seed_node < graph.num_nodes:
        raise ValidationError(f"seed node {seed_node} out of range")

    neighbors = graph.neighbors if exclude is None else _PrunedNeighbors(graph, exclude)
    walk = _walk(neighbors, seed_node, cfg.restart_prob,
                 _uniforms(_sampler_rng(cfg, seed_node)).__next__)
    budget = cfg.node_budget
    visited = {seed_node}
    if budget > 1:                      # else the seed alone fills the budget
        for current in itertools.islice(walk, cfg.max_steps):
            visited.add(current)
            if len(visited) >= budget:
                break
    return tuple(sorted(visited))


def induced_edges(
    graph: TextAttributedGraph,
    node_sets,
    excluded=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges of the subgraphs induced on each of ``node_sets`` (sorted ids).

    Returns int64 arrays ``(batch, local_u, local_v)``: edge ``(local_u[j],
    local_v[j])`` of subgraph ``batch[j]`` in local indices, ``local_u <
    local_v``, sorted by (batch, local_u, local_v). ``excluded[i]``, when
    given and not None, is a graph edge left out of subgraph i.
    """
    indptr, indices = graph.csr
    sizes = np.array([len(ids) for ids in node_sets], dtype=np.int64)
    first = np.cumsum(sizes) - sizes                       # offset of each set
    ids = np.fromiter(itertools.chain.from_iterable(node_sets), dtype=np.int64,
                      count=int(sizes.sum()))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    # One entry per (member, neighbor) pair, members in order, neighbors sorted.
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    source = np.repeat(np.arange(ids.size), counts)
    neighbor = indices[np.arange(source.size) + np.repeat(starts - np.cumsum(counts) + counts,
                                                          counts)]
    batch = owner[source]
    # Sets are sorted and disjoint in key space, so one searchsorted over
    # (set, id) keys tests membership and gives the neighbor's local index.
    keys = owner * graph.num_nodes + ids
    wanted = batch * graph.num_nodes + neighbor
    position = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    local_u, local_v = source - first[batch], position - first[batch]
    keep = (keys[position] == wanted) & (local_u < local_v)
    if excluded is not None:
        # Local order follows id order, so a kept pair has ids[source] < neighbor.
        ends = np.array([(-1, -1) if e is None else (min(e), max(e)) for e in excluded],
                        dtype=np.int64).reshape(-1, 2)[batch]
        keep &= (ids[source] != ends[:, 0]) | (neighbor != ends[:, 1])
    return batch[keep], local_u[keep], local_v[keep]


def rwr_sample(
    graph: TextAttributedGraph,
    seed_node: int,
    cfg: SamplerConfig,
    exclude: tuple[int, int] | None = None,
) -> EgoSubgraph:
    """Sample an ego-subgraph by random walk with restart: the subgraph
    induced on ``rwr_nodes(graph, seed_node, cfg, exclude)``, without the
    excluded edge."""
    global_ids = rwr_nodes(graph, seed_node, cfg, exclude)
    _, local_u, local_v = induced_edges(graph, [global_ids],
                                        None if exclude is None else [exclude])
    if graph.features is not None:
        features = np.array(graph.features[list(global_ids)], dtype=np.float64)
    else:
        features = np.zeros((len(global_ids), 0), dtype=np.float64)
    return EgoSubgraph(
        center_local_id=global_ids.index(seed_node),
        global_ids=global_ids,
        features=features,
        edges=tuple(zip(local_u.tolist(), local_v.tolist())),
    )


def degree_normalized(adjacency: np.ndarray) -> np.ndarray:
    """D^-1 A over the last two axes; rows of isolated or padded nodes stay zero."""
    return adjacency / np.maximum(adjacency.sum(axis=-1, keepdims=True), 1.0)


def batched_rwpe(transition: np.ndarray, sizes: np.ndarray, num_powers: int) -> np.ndarray:
    """Random-walk positional encodings of a padded batch, (B, n_max, num_powers).

    ``transition`` is the (B, n_max, n_max) degree-normalized adjacency and
    subgraph b fills its first ``sizes[b]`` slots. Entry (b, v, k) is the
    diagonal of the (k+1)-th power of subgraph b's transition matrix; padded
    slots stay zero. Powers are taken per size bucket on unpadded (B_k, k, k)
    stacks, so each subgraph's values do not depend on what it is batched
    with (padding changes the matrix-product blocking in the last bit).
    """
    if num_powers < 1:
        raise ValidationError("num_powers must be >= 1")
    out = np.zeros(transition.shape[:2] + (num_powers,))
    for k in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == k)
        step = np.ascontiguousarray(transition[members, :k, :k])
        power = step
        for p in range(num_powers):
            if p:
                power = power @ step
            out[members, :k, p] = np.einsum("bii->bi", power)
    return out


def with_positional_encodings(sub: EgoSubgraph, num_powers: int) -> EgoSubgraph:
    """Attach random-walk positional encodings. Column k - 1 holds each node's
    return probability after k steps, the diagonal of the k-th power of the
    degree-normalized adjacency D^-1 A, for k = 1..num_powers. Isolated
    nodes get zero rows."""
    transition = degree_normalized(sub.adjacency_matrix())
    positional = batched_rwpe(transition[None], np.array([sub.num_nodes]), num_powers)[0]
    return dataclasses.replace(sub, positional=positional)
