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

from .atomic import write_text
from .errors import ParseError, ValidationError

_MASK64 = (1 << 64) - 1
# Uniforms drawn per refill of a walker's stream (see ``_Streams``).
_UNIFORM_BLOCK = 64


def _freeze(array: np.ndarray | None) -> np.ndarray | None:
    if array is not None:
        array.flags.writeable = False
    return array


def _edge_ends(edges) -> np.ndarray:
    """The ends of a list of (u, v) pairs as an (E, 2) array: int64, or
    Python ints in an object array when some end does not fit in int64."""
    if set(map(len, edges)) - {2}:
        raise ValidationError("every edge must be a (u, v) pair")
    try:
        flat = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                           count=2 * len(edges))
    except OverflowError:
        flat = np.array(list(map(int, itertools.chain.from_iterable(edges))), dtype=object)
    return flat.reshape(-1, 2)


def _check_edges(num_nodes: int, edges) -> None:
    """Raise for the first edge, in list order, that is a self-loop, leaves
    the node range, is not stored as u < v, or repeats an earlier edge."""
    ends = _edge_ends(edges)
    u, v = ends[:, 0], ends[:, 1]
    loop, flipped = u == v, u > v
    outside = ((ends < 0) | (ends >= num_nodes)).any(axis=1)
    # Keys of out-of-range edges may collide, but such an edge fails first.
    keys = np.where(outside, -1, u * num_nodes + v).astype(np.int64)
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False      # first occurrences
    failing = loop | outside | flipped | repeat
    if not failing.any():
        return
    i = int(np.argmax(failing))
    u, v = edges[i]
    raise ValidationError(
        f"self-loop on node {u}" if loop[i] else
        f"edge ({u}, {v}) references a node out of range" if outside[i] else
        f"edge ({u}, {v}) not stored in canonical (u < v) order" if flipped[i] else
        f"duplicate edge ({u}, {v})")


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
        _check_edges(self.num_nodes, self.edges)
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
        edges = edges if isinstance(edges, (list, tuple)) else list(edges)
        ends = _edge_ends(edges)
        kept = ends[ends[:, 0] != ends[:, 1]]
        outside = ((kept < 0) | (kept >= num_nodes)).any(axis=1)
        if outside.any():
            u, v = kept[np.argmax(outside)].tolist()
            raise ValidationError(f"edge ({u}, {v}) references a node out of range")
        keys = kept.min(axis=1) * num_nodes + kept.max(axis=1)
        # Reuse the input's pairs when already canonical: no second tuple per edge.
        if not (len(kept) == len(edges) and np.all(kept[:, 0] < kept[:, 1])
                and np.all(keys[1:] > keys[:-1]) and set(map(type, edges)) <= {tuple}
                and set(map(type, itertools.chain.from_iterable(edges))) <= {int}):
            keys = np.unique(keys)
            edges = zip((keys // num_nodes).tolist(), (keys % num_nodes).tolist())
        return cls(
            num_nodes=num_nodes,
            edges=tuple(edges),
            raw_text=tuple(raw_text),
            **kwargs,
        )

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor lists in compressed rows ``(indptr, indices)``: node v's
        sorted neighbors are ``indices[indptr[v]:indptr[v + 1]]``."""
        ends = _edge_ends(self.edges)
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


# The field separator and every character that ``str.splitlines`` breaks on.
_FLATTEN = str.maketrans(dict.fromkeys("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", " "))


def save_graph(graph: TextAttributedGraph, path) -> None:
    """Write a graph in the edge-list-with-text format. Tabs and line breaks
    in node texts become spaces, so the file loads back."""
    path = Path(path)
    lines = [str(graph.num_nodes)]
    for i in range(graph.num_nodes):
        label = "-"
        if graph.labels is not None and graph.labels[i] >= 0 and graph.class_names:
            label = graph.class_names[int(graph.labels[i])]
        lines.append(f"{i}\t{label}\t{graph.raw_text[i].translate(_FLATTEN)}")
    for u, v in graph.edges:
        lines.append(f"{u}\t{v}")
    write_text(path, "\n".join(lines) + "\n")


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# PCG64's state after _UNIFORM_BLOCK steps from s is JUMP_MULT * s + JUMP_ADD * inc.
_JUMP_MULT = pow(_PCG_MULT, _UNIFORM_BLOCK, 1 << 128)
_JUMP_ADD = sum(pow(_PCG_MULT, k, 1 << 128) for k in range(_UNIFORM_BLOCK)) & _MASK128


def _seed_pools(entropy: np.ndarray) -> np.ndarray:
    """(W, 4) uint32: row i equals ``SeedSequence(entropy[i]).pool`` for the
    (W, k <= 4) uint32 words ``entropy``, all rows at once. numpy pads short
    entropy with zeros, as here, so trailing zero words change no pool."""
    words = np.zeros((_POOL_SIZE, len(entropy)), dtype=np.uint32)
    words[:entropy.shape[1]] = entropy.T
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    with np.errstate(over="ignore"):
        mixer = [hashmix(word) for word in words]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    mixed = _MIX_MULT_L * mixer[i_dst] - _MIX_MULT_R * hashmix(mixer[i_src])
                    mixer[i_dst] = mixed ^ (mixed >> _XSHIFT)
    return np.stack(mixer, axis=1)


def _walker_entropy(rng_seeds, nodes) -> np.ndarray:
    """(W, 3) uint32 entropy of ``SeedSequence([rng_seeds[i] & _MASK64, nodes[i]])``:
    the seed's one or two 32-bit words, the node's one (< 2^32), zero padding."""
    seeds = np.array([int(s) & _MASK64 for s in rng_seeds], dtype=np.uint64)
    nodes = np.asarray(nodes, dtype=np.uint64).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    wide = high != 0
    return np.stack([seeds.astype(np.uint32), np.where(wide, high, nodes),
                     np.where(wide, nodes, 0).astype(np.uint32)], axis=1)


def _pcg64_states(pools: np.ndarray) -> np.ndarray:
    """(W, 4) uint64: the 128-bit ``state`` and ``inc`` of
    ``PCG64(seed_sequence)`` for each row of pools, as their high and low
    words: ``generate_state(4, uint64)`` vectorized, then PCG's seeding."""
    words = np.empty((2 * _POOL_SIZE, pools.shape[0]), dtype=np.uint64)
    hash_const = _INIT_B
    with np.errstate(over="ignore"):
        for i in range(2 * _POOL_SIZE):
            value = pools[:, i % _POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            words[i] = value ^ (value >> _XSHIFT)
    high, low, inc_high, inc_low = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
    # PCG's seeding: inc = 2 * initseq + 1, then two LCG steps from state 0
    # with initstate added in between.
    incs = [(((a << 64) | b) << 1 | 1) & _MASK128 for a, b in zip(inc_high, inc_low)]
    seeded = [((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128
              for inc, a, b in zip(incs, high, low)]
    states = np.empty((pools.shape[0], 4), dtype=np.uint64)
    for column, values in enumerate((seeded, incs)):
        states[:, 2 * column] = [value >> 64 for value in values]
        states[:, 2 * column + 1] = [value & _MASK64 for value in values]
    return states


class _Streams:
    """One uniform stream per walker: numpy's PCG64 seeded from
    ``SeedSequence([rng_seed & _MASK64, seed_node])``, drawn
    ``_UNIFORM_BLOCK`` at a time into the walker's row of a buffer.

    A refill sets one shared generator to the walker's state, so no
    generator is built per walker. ``random(k)`` yields the same values as
    k scalar draws, one PCG64 step each, so blocks change no walk. States
    are kept as uint64 words, not Python ints, so a request allocates no
    object per walker; that kept the process heap from growing job by job.
    """

    def __init__(self, rng_seeds, nodes):
        self._states = _pcg64_states(_seed_pools(_walker_entropy(rng_seeds, nodes)))
        self._block = np.empty((len(self._states), _UNIFORM_BLOCK))
        self._used = np.full(len(self._states), _UNIFORM_BLOCK)
        self._rng = np.random.Generator(np.random.PCG64())
        self._setting = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}

    def draw(self, walkers: np.ndarray) -> np.ndarray:
        """The next uniform of each of the (distinct) walkers."""
        used = self._used[walkers]
        spent = used == _UNIFORM_BLOCK
        for walker in walkers[spent].tolist():
            high, low, inc_high, inc_low = self._states[walker].tolist()
            state, inc = (high << 64) | low, (inc_high << 64) | inc_low
            self._setting["state"] = {"state": state, "inc": inc}
            self._rng.bit_generator.state = self._setting
            self._rng.random(out=self._block[walker])
            state = (_JUMP_MULT * state + _JUMP_ADD * inc) & _MASK128
            self._states[walker, 0] = state >> 64
            self._states[walker, 1] = state & _MASK64
        used[spent] = 0
        self._used[walkers] = used + 1
        return self._block[walkers, used]


def _excluded_entries(graph: TextAttributedGraph, excluded):
    """Per walker, the endpoints ``(a, b)`` of its excluded edge and the
    CSR positions of its two entries, b in a's row and a in b's. Walkers
    without one get endpoints -1 and positions past the CSR arrays."""
    n = graph.num_nodes
    indptr, indices = graph.csr
    ends = np.full((len(excluded), 2), -1, dtype=np.int64)
    entries = np.full((len(excluded), 2), indices.size, dtype=np.int64)
    chosen = [i for i, edge in enumerate(excluded) if edge is not None]
    if not chosen:
        return ends, entries
    pairs = np.array([[int(x) for x in excluded[i]] for i in chosen], dtype=np.int64)
    # CSR entries are sorted by (row, neighbor); after them comes a key above
    # every wanted one. One searchsorted finds all entries.
    keys = np.append(np.repeat(np.arange(n), np.diff(indptr)) * n + indices, n * n)
    inside = np.all((pairs >= 0) & (pairs < n), axis=1)
    wanted = np.where(inside[:, None], pairs * n + pairs[:, ::-1], -1)
    found = np.searchsorted(keys, wanted)
    present = np.all(keys[found] == wanted, axis=1)
    if not present.all():
        u, v = pairs[np.argmin(present)].tolist()
        raise ValidationError(f"edge {(min(u, v), max(u, v))} not present")
    ends[chosen], entries[chosen] = pairs, found
    return ends, entries


def rwr_batch(
    graph: TextAttributedGraph,
    seed_nodes,
    rng_seeds,
    cfg: SamplerConfig,
    excluded,
) -> list[np.ndarray]:
    """Sorted node ids visited by a random walk with restart from each seed.

    All walkers advance together over the graph's CSR arrays. Each
    transition draws one uniform to decide the restart and, unless it
    restarts or stands at a dead end (which restarts unconditionally), a
    second to pick a neighbor. Walker i stops once ``cfg.node_budget``
    distinct nodes were visited or ``cfg.max_steps`` transitions elapsed,
    and always contains its seed.

    Walker i draws from the stream of ``SeedSequence([rng_seeds[i] &
    _MASK64, seed_nodes[i]])``: ``rng_seeds[i]`` takes the place of
    ``cfg.rng_seed``, and a walk depends on nothing else in the batch.
    ``excluded`` is None or holds, per walker, an edge of the graph to leave
    out or None: the walk is then exactly that on ``graph.without_edge``,
    without copying the graph.
    """
    try:
        seeds = np.array(seed_nodes, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValidationError("seed node out of range") from None
    if seeds.size and graph.num_nodes == 0:
        raise ValidationError("cannot sample from an empty graph")
    outside = (seeds < 0) | (seeds >= graph.num_nodes)
    if outside.any():
        raise ValidationError(f"seed node {seeds[outside][0]} out of range")
    ends, entries = _excluded_entries(
        graph, [None] * seeds.size if excluded is None else excluded)
    indptr, indices = graph.csr
    # Past num_nodes distinct nodes the visited set cannot grow.
    budget = min(cfg.node_budget, max(graph.num_nodes, 1))
    visited = np.full((seeds.size, budget), -1, dtype=np.int64)
    visited[:, 0] = seeds
    count = np.ones(seeds.size, dtype=np.int64)
    streams = _Streams(rng_seeds, seeds)
    # The walkers still running, and their seeds, positions and excluded edges.
    live = np.flatnonzero(count < budget)
    origin, current, ends, entries = seeds[live], seeds[live], ends[live], entries[live]
    for _ in range(cfg.max_steps):
        if not live.size:
            break
        stay = streams.draw(live) < cfg.restart_prob
        start = indptr[current]
        # The CSR position the walker may not take from here, or indices.size.
        skip = np.where(current == ends[:, 0], entries[:, 0],
                        np.where(current == ends[:, 1], entries[:, 1], indices.size))
        degree = indptr[current + 1] - start - (skip < indices.size)
        moves = (~stay & (degree > 0)).nonzero()[0]
        position = start[moves] + (streams.draw(live[moves]) * degree[moves]).astype(np.int64)
        position += position >= skip[moves]
        current = origin.copy()
        current[moves] = indices[position]
        fresh = ~(visited[live] == current[:, None]).any(axis=1)
        grown = live[fresh]
        visited[grown, count[grown]] = current[fresh]
        count[grown] += 1
        going = count[live] < budget
        if not going.all():
            live, origin, current, ends, entries = (
                a[going] for a in (live, origin, current, ends, entries))
    visited.sort(axis=1)
    return [row[budget - size:] for row, size in zip(visited, count.tolist())]


def rwr_nodes(
    graph: TextAttributedGraph,
    seed_node: int,
    cfg: SamplerConfig,
    exclude: tuple[int, int] | None = None,
) -> tuple[int, ...]:
    """Sorted node ids visited by a random walk with restart from the seed:
    ``rwr_batch`` with one walker on ``cfg.rng_seed``. Deterministic given
    (graph, seed_node, cfg); ``exclude`` names an edge of the graph to
    leave out."""
    ids = rwr_batch(graph, [seed_node], [cfg.rng_seed], cfg, [exclude])[0]
    return tuple(ids.tolist())


# Subgraphs whose edges one induced_edges call induces. Its temporaries grow
# with the chunk's member-neighbor pairs: about 1.8 MB at 128 subgraphs of
# 16 nodes with mean degree 12, 22 MB for 1,600 at once, and past 128 a
# larger chunk was no faster.
INDUCE_CHUNK = 128


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
    ids = np.concatenate(node_sets).astype(np.int64, copy=False)
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
    return induced_subgraph(graph, seed_node, rwr_nodes(graph, seed_node, cfg, exclude), exclude)


def induced_subgraph(
    graph: TextAttributedGraph,
    seed_node: int,
    global_ids,
    exclude: tuple[int, int] | None,
) -> EgoSubgraph:
    """The subgraph induced on the sorted ids ``global_ids``, rooted at the
    seed and without the excluded edge (None for none)."""
    global_ids = tuple(int(g) for g in global_ids)
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
