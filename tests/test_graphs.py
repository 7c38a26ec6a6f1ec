"""tag-core: loading, sampling, positional encodings."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsum.errors import ParseError, TagsumError, ValidationError
from tagsum.graphs import (
    EgoSubgraph,
    SamplerConfig,
    TextAttributedGraph,
    _pcg64_states,
    _seed_pools,
    _walker_entropy,
    induced_edges,
    load_graph,
    rwr_batch,
    rwr_nodes,
    rwr_sample,
    save_graph,
    with_positional_encodings,
)
from tagsum.synthetic import make_synthetic_tag

from reference import loop_canonical_edges, loop_check_edges, loop_synthetic_edges, rwr_walk


def write_graph_file(tmp_path, body):
    path = tmp_path / "g.tsv"
    path.write_text(body, encoding="utf-8")
    return path


class TestLoadGraph:
    def test_triangle(self, tmp_path):
        path = write_graph_file(
            tmp_path,
            "3\n0\tA\tfirst\n1\t-\tsecond\n2\tA\tthird\n0\t1\n1\t2\n2\t0\n",
        )
        graph = load_graph(path)
        assert graph.num_nodes == 3
        assert len(graph.edges) == 3
        assert graph.raw_text == ("first", "second", "third")
        assert graph.class_names == ("A",)
        assert list(graph.labels) == [0, -1, 0]

    def test_duplicate_edge_dedup(self, tmp_path):
        path = write_graph_file(
            tmp_path, "2\n0\t-\ta\n1\t-\tb\n0\t1\n1\t0\n")
        graph = load_graph(path)
        assert graph.edges == ((0, 1),)

    def test_self_loop_stripped(self, tmp_path):
        path = write_graph_file(
            tmp_path, "2\n0\t-\ta\n1\t-\tb\n0\t0\n0\t1\n")
        assert load_graph(path).edges == ((0, 1),)

    def test_dangling_node_id(self, tmp_path):
        path = write_graph_file(
            tmp_path, "3\n0\t-\ta\n1\t-\tb\n2\t-\tc\n0\t99\n")
        with pytest.raises(ValidationError):
            load_graph(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_graph_file(tmp_path, "2\n0\t-\ta\nbad line without tabs\n")
        with pytest.raises(ParseError) as err:
            load_graph(path)
        assert "line 3" in str(err.value)

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_bytes(b"1\n0\t-\tcaf\xe9\n")
        with pytest.raises(ParseError, match="UTF-8"):
            load_graph(path)

    def test_round_trip(self, tmp_path, tiny_graph):
        path = tmp_path / "round.tsv"
        save_graph(tiny_graph, path)
        loaded = load_graph(path)
        assert loaded.num_nodes == tiny_graph.num_nodes
        assert loaded.edges == tiny_graph.edges
        assert loaded.raw_text == tiny_graph.raw_text


# The field separator and every character on which ``str.splitlines`` splits.
BREAKS = ["\t"] + [c for c in map(chr, range(0x10000)) if len(f"a{c}b".splitlines()) > 1]


def flattened(text: str) -> str:
    return "".join(" " if c in BREAKS else c for c in text)


class TestSaveGraphRoundTrip:
    def test_line_separator_in_text(self, tmp_path):
        graph = TextAttributedGraph.from_edges(2, [(0, 1)], ["left\u2028right", "a\rb\x0cc"])
        save_graph(graph, tmp_path / "g.tsv")
        assert load_graph(tmp_path / "g.tsv").raw_text == ("left right", "a b c")

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(st.characters(blacklist_categories=("Cs",))
                                  | st.sampled_from(BREAKS)), min_size=1, max_size=4))
    def test_any_texts_load_back_flattened(self, tmp_path_factory, texts):
        path = tmp_path_factory.getbasetemp() / "round.tsv"
        n = len(texts)
        save_graph(TextAttributedGraph.from_edges(n, [(0, n - 1)], texts), path)
        loaded = load_graph(path)
        assert loaded.raw_text == tuple(flattened(t) for t in texts)
        assert loaded.edges == (((0, n - 1),) if n > 1 else ())


class TestLoadGraphProperty:
    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=96) | st.text(alphabet="0123-\t\n ab\xe9", max_size=48)
           .map(lambda text: text.encode("utf-8")))
    def test_any_bytes_load_or_raise_tagsum_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
        path.write_bytes(body)
        try:
            load_graph(path)
        except TagsumError:
            pass


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            TextAttributedGraph(2, ((0, 0),), ("a", "b"))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            TextAttributedGraph(2, ((0, 5),), ("a", "b"))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValidationError):
            TextAttributedGraph(2, (), ("a", "b"), features=np.zeros((3, 4)))

    def test_features_frozen(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.features[0, 0] = 99.0


HUGE = [2**63 - 1, 2**63, 2**64, -2**63 - 1, 2**100]


@st.composite
def edge_lists(draw):
    """A node count and an edge list: a canonical, sorted and unique list,
    maybe shuffled, with up to three edges inserted anywhere. An inserted
    edge repeats or flips one in the list, or is a self-loop or any pair,
    with ends out of range or beyond int64. Ends are Python or numpy ints,
    in tuples or lists."""
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    end = st.integers(-2, n + 1) | st.sampled_from(HUGE)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["repeat", "flip"] * bool(edges) + ["loop", "any"]))
        if kind in ("repeat", "flip"):
            edge = draw(st.sampled_from(edges))
            edge = edge if kind == "repeat" else edge[::-1]
        elif kind == "loop":
            edge = (draw(end),) * 2
        else:
            edge = (draw(end), draw(end))
        edges.insert(draw(st.integers(0, len(edges))), edge)
    if draw(st.booleans()):
        edges = [[u, v] for u, v in edges]
    elif draw(st.booleans()):
        edges = [tuple(np.int64(x) if abs(x) < 2**62 else x for x in e) for e in edges]
    return n, edges


def outcome(call):
    """The call's result, or the class and message of the TagsumError it raised."""
    try:
        return call()
    except TagsumError as exc:
        return type(exc), str(exc)


class TestBulkEdgesAgainstLoops:
    @settings(max_examples=400, deadline=None)
    @given(case=edge_lists())
    def test_check_matches_the_loop(self, case):
        n, edges = case
        got = outcome(lambda: TextAttributedGraph(n, tuple(edges), ("",) * n).edges)
        want = outcome(lambda: loop_check_edges(n, edges) or tuple(edges))
        assert got == want

    @settings(max_examples=400, deadline=None)
    @given(case=edge_lists())
    def test_canonical_edges_match_the_loop(self, case):
        n, edges = case
        got = outcome(lambda: TextAttributedGraph.from_edges(n, edges, [""] * n).edges)
        want = outcome(lambda: loop_canonical_edges(n, edges))
        assert repr(got) == repr(want)

    def test_huge_end_is_validation_error(self):
        for make in (lambda: TextAttributedGraph(2, ((0, 2**64),), ("", "")),
                     lambda: TextAttributedGraph.from_edges(2, [(2**64, 0)], ["", ""])):
            with pytest.raises(ValidationError, match="out of range"):
                make()

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1), (2,)], [(0, 1), (1, 2, 0), ()]])
    def test_malformed_pair_rejected(self, edges):
        with pytest.raises(ValidationError, match="pair"):
            TextAttributedGraph(3, tuple(edges), ("",) * 3)
        with pytest.raises(ValidationError, match="pair"):
            TextAttributedGraph.from_edges(3, edges, [""] * 3)

    def test_canonical_input_is_kept(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        graph = TextAttributedGraph.from_edges(3, edges, [""] * 3)
        assert graph.edges == tuple(edges)
        assert all(a is b for a, b in zip(graph.edges, edges))


class TestSamplerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"restart_prob": 0.0},
        {"restart_prob": 1.0},
        {"node_budget": 0},
        {"node_budget": 10, "max_steps": 5},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValidationError):
            SamplerConfig(**kwargs)


class TestRwrSample:
    def test_seed_always_included(self, tiny_graph):
        for seed in range(4):
            sub = rwr_sample(tiny_graph, seed, SamplerConfig(node_budget=2, max_steps=4))
            assert seed in sub.global_ids
            assert sub.global_ids[sub.center_local_id] == seed

    def test_connected_graph_fully_visited(self):
        # Brute-force reachability oracle: with enough steps, a restart walk
        # on a small connected graph visits every node (failure probability
        # is below 1e-6 by enumerating worst-case transition probabilities).
        graph = TextAttributedGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], [""] * 4)
        sub = rwr_sample(graph, 0, SamplerConfig(node_budget=10, max_steps=2000))
        assert sub.global_ids == (0, 1, 2, 3)

    def test_budget_respected(self, tiny_graph):
        sub = rwr_sample(tiny_graph, 1, SamplerConfig(node_budget=2, max_steps=100))
        assert len(sub.global_ids) <= 2

    def test_deterministic(self, tiny_graph):
        cfg = SamplerConfig(node_budget=3, max_steps=20, rng_seed=42)
        a = rwr_sample(tiny_graph, 1, cfg)
        b = rwr_sample(tiny_graph, 1, cfg)
        assert a.global_ids == b.global_ids
        assert a.edges == b.edges
        np.testing.assert_array_equal(a.features, b.features)

    def test_isolated_seed_single_node(self):
        graph = TextAttributedGraph.from_edges(3, [(0, 1)], ["a", "b", "c"])
        sub = rwr_sample(graph, 2, SamplerConfig(node_budget=4, max_steps=10))
        assert sub.global_ids == (2,)
        assert sub.edges == ()

    def test_invalid_seed(self, tiny_graph):
        with pytest.raises(ValidationError):
            rwr_sample(tiny_graph, 99, SamplerConfig())
        with pytest.raises(ValidationError):
            rwr_sample(tiny_graph, 2**70, SamplerConfig())

    def test_induced_closure(self, tiny_graph):
        # Every subgraph edge exists in the parent; every parent edge between
        # sampled nodes appears in the subgraph.
        sub = rwr_sample(tiny_graph, 1, SamplerConfig(node_budget=3, max_steps=50))
        parent = set(tiny_graph.edges)
        ids = sub.global_ids
        for u, v in sub.edges:
            assert (min(ids[u], ids[v]), max(ids[u], ids[v])) in parent
        inside = set(ids)
        expected = {e for e in parent if e[0] in inside and e[1] in inside}
        mapped = {(min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in sub.edges}
        assert mapped == expected

    def test_features_follow_global_ids(self, tiny_graph):
        sub = rwr_sample(tiny_graph, 2, SamplerConfig(node_budget=4, max_steps=100))
        for local, g in enumerate(sub.global_ids):
            np.testing.assert_array_equal(sub.features[local],
                                          tiny_graph.features[g])


def stationary_distribution(graph, seed, restart_prob):
    """Independent oracle: solve (I - (1-c) A D^-1) r = c e_seed."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for u, v in graph.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    deg = a.sum(axis=0)
    w = a / np.where(deg > 0, deg, 1.0)[None, :]  # column-normalized: A D^-1
    rhs = np.zeros(n)
    rhs[seed] = restart_prob
    return np.linalg.solve(np.eye(n) - (1 - restart_prob) * w, rhs)


class TestExcludedEdge:
    @pytest.mark.parametrize("cfg", [SamplerConfig(node_budget=8, max_steps=64, rng_seed=3),
                                     SamplerConfig(restart_prob=0.2, node_budget=16,
                                                   max_steps=256, rng_seed=11)])
    def test_matches_sampling_on_the_copied_graph(self, cfg):
        graph = make_synthetic_tag(120, seed=5, intra_edge_prob=0.08,
                                   inter_edge_prob=0.01)
        graph = TextAttributedGraph.from_edges(
            graph.num_nodes, graph.edges, graph.raw_text,
            features=np.random.default_rng(0).normal(size=(graph.num_nodes, 3)))
        picks = np.random.default_rng(1).choice(len(graph.edges), size=60, replace=False)
        for index in picks:
            u, v = graph.edges[int(index)]
            pruned = graph.without_edge(u, v)
            for node in (u, v):
                for edge in ((u, v), (v, u)):
                    got = rwr_sample(graph, node, cfg, exclude=edge)
                    want = rwr_sample(pruned, node, cfg)
                    assert got.global_ids == want.global_ids
                    assert got.edges == want.edges
                    assert got.center_local_id == want.center_local_id
                    np.testing.assert_array_equal(got.features, want.features)

    @pytest.mark.parametrize("edge", [(0, 2), (1, 1), (0, 9), (-1, 0)])
    def test_absent_edge_rejected(self, tiny_graph, edge):
        with pytest.raises(ValidationError):
            rwr_sample(tiny_graph, 0, SamplerConfig(), exclude=edge)

    def test_absent_edge_rejected_on_an_edgeless_graph(self):
        graph = TextAttributedGraph.from_edges(3, [], [""] * 3)
        with pytest.raises(ValidationError, match="not present"):
            rwr_sample(graph, 0, SamplerConfig(), exclude=(0, 1))


def loop_rwr_sample(graph, seed_node, cfg, exclude=None):
    """Frozen reference: the sampler as a scalar-draw walk plus a per-neighbor
    induction loop, on a copy of the graph without the excluded edge."""
    if exclude is not None:
        graph = graph.without_edge(*exclude)
    neighbors = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    neighbors = [sorted(ns) for ns in neighbors]
    entropy = np.random.SeedSequence([cfg.rng_seed & ((1 << 64) - 1), seed_node])
    rng = np.random.Generator(np.random.PCG64(entropy))
    visited = {seed_node}
    current = seed_node
    for _ in range(cfg.max_steps):
        if len(visited) >= cfg.node_budget:
            break
        if rng.random() < cfg.restart_prob or not neighbors[current]:
            current = seed_node
        else:
            local = neighbors[current]
            current = local[int(rng.random() * len(local))]
        visited.add(current)
    global_ids = tuple(sorted(visited))
    local = {g: i for i, g in enumerate(global_ids)}
    edges = set()
    for g in global_ids:
        for w in neighbors[g]:
            if w in local and local[g] < local[w]:
                edges.add((local[g], local[w]))
    features = (np.zeros((len(global_ids), 0)) if graph.features is None
                else np.array(graph.features[list(global_ids)], dtype=np.float64))
    return global_ids, tuple(sorted(edges)), features, local[seed_node]


def loop_rwpe(sub, num_powers):
    """Frozen reference: diagonals of I @ T @ T ... one power at a time."""
    n = sub.num_nodes
    a = np.zeros((n, n))
    for u, v in sub.edges:
        a[u, v] = a[v, u] = 1.0
    deg = a.sum(axis=1)
    transition = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)[:, None] * a
    out = np.zeros((n, num_powers))
    power = np.eye(n)
    for k in range(num_powers):
        power = power @ transition
        out[:, k] = np.diag(power)
    return out


def assert_matches_loop(graph, node, cfg, exclude=None):
    got = rwr_sample(graph, node, cfg, exclude=exclude)
    ids, edges, features, center = loop_rwr_sample(graph, node, cfg, exclude)
    assert got.global_ids == ids
    assert got.edges == edges
    assert got.center_local_id == center
    assert rwr_nodes(graph, node, cfg, exclude) == ids
    assert got.features.dtype == features.dtype
    np.testing.assert_array_equal(got.features, features)
    return got


class TestAgainstLoopSampler:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    @pytest.mark.parametrize("cfg", [
        SamplerConfig(node_budget=8, max_steps=64, rng_seed=3),
        SamplerConfig(node_budget=16, max_steps=256, rng_seed=2**70 + 5),
        SamplerConfig(restart_prob=0.2, node_budget=30, max_steps=1000, rng_seed=11),
        SamplerConfig(restart_prob=0.9, node_budget=5, max_steps=5, rng_seed=1),
    ])
    def test_equal_with_and_without_exclusion(self, graph_seed, cfg):
        base = make_synthetic_tag(120, seed=graph_seed, intra_edge_prob=0.05 + 0.03 * graph_seed,
                                  inter_edge_prob=0.01)
        graph = TextAttributedGraph.from_edges(
            base.num_nodes, base.edges, base.raw_text,
            features=np.random.default_rng(graph_seed).normal(size=(base.num_nodes, 3)))
        for node in range(0, graph.num_nodes, 7):
            assert_matches_loop(graph, node, cfg)
        for index in np.random.default_rng(graph_seed).choice(len(graph.edges), 12,
                                                             replace=False):
            u, v = graph.edges[int(index)]
            assert_matches_loop(graph, u, cfg, exclude=(u, v))
            assert_matches_loop(graph, v, cfg, exclude=(u, v))

    def test_isolated_seed_and_featureless_graph(self):
        graph = TextAttributedGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)], [""] * 5)
        cfg = SamplerConfig(node_budget=4, max_steps=40, rng_seed=9)
        got = assert_matches_loop(graph, 2, cfg, exclude=(1, 2))
        assert got.global_ids == (2,) and got.features.shape == (1, 0)
        for node in range(5):
            assert_matches_loop(graph, node, cfg)
            assert_matches_loop(graph, node, cfg, exclude=(3, 4))

    def test_million_steps_on_three_nodes(self):
        # The budget exceeds the graph, so the walk runs every step.
        graph = TextAttributedGraph.from_edges(3, [(0, 1), (1, 2)], [""] * 3)
        cfg = SamplerConfig(node_budget=4, max_steps=10**6, rng_seed=4)
        assert assert_matches_loop(graph, 0, cfg).global_ids == (0, 1, 2)


class TestStreamSeeding:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 5]
    NODES = [0, 1, 2**31]

    def test_pools_and_states_equal_numpy(self):
        rng_seeds = [s for s in self.SEEDS for _ in self.NODES]
        nodes = self.NODES * len(self.SEEDS)
        pools = _seed_pools(_walker_entropy(rng_seeds, nodes))
        states = _pcg64_states(pools)
        for i, (rng_seed, node) in enumerate(zip(rng_seeds, nodes)):
            sequence = np.random.SeedSequence([rng_seed & ((1 << 64) - 1), node])
            assert pools[i].tolist() == sequence.pool.tolist(), (rng_seed, node)
            state = np.random.PCG64(sequence).state["state"]
            high, low, inc_high, inc_low = states[i].tolist()
            assert ((high << 64) | low, (inc_high << 64) | inc_low) == (
                state["state"], state["inc"]), (rng_seed, node)


@st.composite
def walker_batches(draw):
    """A small graph (isolated nodes and pendants arise often), a sampler
    config, and a batch of walkers: seed node, stream seed, excluded edge."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    graph = TextAttributedGraph.from_edges(n, edges, [""] * n)
    budget = draw(st.integers(1, n + 2))
    # SamplerConfig requires max_steps >= node_budget (>= 1).
    cfg = SamplerConfig(restart_prob=draw(st.floats(0.05, 0.95)), node_budget=budget,
                        max_steps=draw(st.integers(budget, 300)))
    rng_seed = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64,
                                2**64 + 1]) | st.integers(0, 2**66)
    walkers = []
    for _ in range(draw(st.integers(1, 6))):
        node = draw(st.integers(0, n - 1))
        touching = [e for e in edges if node in e]
        edge = draw(st.sampled_from([None] + edges)) if edges else None
        if touching and draw(st.booleans()):
            edge = draw(st.sampled_from(touching))
        if edge is not None and draw(st.booleans()):
            edge = edge[::-1]
        walkers.append((node, draw(rng_seed), edge))
    return graph, cfg, walkers


class TestBatchedWalker:
    @settings(max_examples=150, deadline=None)
    @given(walker_batches())
    def test_each_walker_equals_the_loop_sampler(self, case):
        """Whatever else is in the batch, each walker's node set is the loop
        sampler's on its own stream seed and excluded edge."""
        graph, cfg, walkers = case
        nodes, rng_seeds, excluded = zip(*walkers)
        got = rwr_batch(graph, nodes, rng_seeds, cfg, excluded)
        assert len(got) == len(walkers)
        for (node, rng_seed, edge), ids in zip(walkers, got):
            want = loop_rwr_sample(graph, node, dataclasses.replace(cfg, rng_seed=rng_seed),
                                   edge)[0]
            assert tuple(ids.tolist()) == want

    def test_no_walkers(self):
        cfg = SamplerConfig()
        assert rwr_batch(TextAttributedGraph.from_edges(0, [], []), [], [], cfg, None) == []


class TestSyntheticGraph:
    @pytest.mark.parametrize("num_nodes, seed, intra, inter", [
        (90, 0, 0.3, 0.005), (200, 4, 0.1, 0.02), (1, 2, 0.5, 0.5), (7, 3, 1.0, 0.0)])
    def test_edges_equal_the_scalar_loop(self, num_nodes, seed, intra, inter):
        graph = make_synthetic_tag(num_nodes, seed=seed, intra_edge_prob=intra,
                                   inter_edge_prob=inter)
        rng = np.random.default_rng(seed)
        for _ in range(num_nodes):                  # the text draws come first
            rng.choice(5, size=2, replace=False)
        want = loop_synthetic_edges(num_nodes, graph.labels, rng, intra, inter)
        assert graph.edges == tuple(want)


class TestInducedEdges:
    def test_batch_equals_one_at_a_time(self):
        graph = make_synthetic_tag(80, seed=4, intra_edge_prob=0.15, inter_edge_prob=0.02)
        rng = np.random.default_rng(0)
        node_sets = [tuple(sorted(rng.choice(80, size=int(k), replace=False).tolist()))
                     for k in rng.integers(1, 25, size=12)]
        excluded = [graph.edges[int(rng.integers(len(graph.edges)))] if i % 3 else None
                    for i in range(len(node_sets))]
        batch, local_u, local_v = induced_edges(graph, node_sets, excluded)
        for i, (ids, edge) in enumerate(zip(node_sets, excluded)):
            pruned = graph if edge is None else graph.without_edge(*edge)
            inside = {g: j for j, g in enumerate(ids)}
            want = sorted((inside[u], inside[v]) for u, v in pruned.edges
                          if u in inside and v in inside)
            mine = batch == i
            assert list(zip(local_u[mine].tolist(), local_v[mine].tolist())) == want
        assert np.all(np.diff(batch) >= 0)


class TestRwrDistribution:
    def test_path_graph_matches_linear_system(self):
        # 10^5 independent walks; final positions after 25 steps are
        # stationary to far below statistical resolution.
        graph = TextAttributedGraph.from_edges(3, [(0, 1), (1, 2)], [""] * 3)
        expected = stationary_distribution(graph, 1, 0.5)
        np.testing.assert_allclose(expected, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)

        rng = np.random.Generator(np.random.PCG64(7))
        counts = np.zeros(3)
        walks = 100_000
        for _ in range(walks):
            counts[rwr_walk(graph, 1, 0.5, 25, rng)[-1]] += 1
        freq = counts / walks
        np.testing.assert_allclose(freq, expected, atol=0.01)


def walk_cut_at_budget(graph, node, cfg):
    """Visited set of ``rwr_walk`` on the sampler's per-node generator, cut
    when the node budget is reached."""
    entropy = np.random.SeedSequence([cfg.rng_seed & ((1 << 64) - 1), node])
    rng = np.random.Generator(np.random.PCG64(entropy))
    positions = rwr_walk(graph, node, cfg.restart_prob, cfg.max_steps, rng)
    visited = {node}
    for position in positions.tolist():
        if len(visited) >= cfg.node_budget:
            break
        visited.add(position)
    return tuple(sorted(visited))


class TestWalkIsTheSampler:
    """``rwr_walk``, whose visit frequencies acceptance criterion 8 checks, is
    the walk ``rwr_nodes`` runs."""

    @pytest.mark.parametrize("cfg", [
        SamplerConfig(node_budget=8, max_steps=64, rng_seed=3),
        SamplerConfig(node_budget=16, max_steps=256, rng_seed=2**70 + 5),
        SamplerConfig(restart_prob=0.2, node_budget=30, max_steps=1000, rng_seed=11),
        SamplerConfig(restart_prob=0.9, node_budget=5, max_steps=5, rng_seed=1),
        SamplerConfig(node_budget=1, max_steps=3, rng_seed=7),
    ])
    def test_visited_sets_equal(self, cfg):
        base = make_synthetic_tag(100, seed=5, intra_edge_prob=0.06, inter_edge_prob=0.01)
        # Six trailing isolated nodes are dead ends of their own walks.
        with_isolated = TextAttributedGraph.from_edges(
            base.num_nodes + 6, base.edges, base.raw_text + ("",) * 6)
        # A path with a pendant star and two isolated nodes.
        small = TextAttributedGraph.from_edges(
            9, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)], [""] * 9)
        for graph in (with_isolated, small):
            for node in range(graph.num_nodes):
                assert walk_cut_at_budget(graph, node, cfg) == rwr_nodes(graph, node, cfg)

    def test_budget_beyond_the_component(self):
        # The walk never reaches the budget, so every step is taken.
        graph = TextAttributedGraph.from_edges(5, [(0, 1), (1, 2)], [""] * 5)
        cfg = SamplerConfig(node_budget=4, max_steps=700, rng_seed=4)
        for node in range(5):
            assert walk_cut_at_budget(graph, node, cfg) == rwr_nodes(graph, node, cfg)
        assert rwr_nodes(graph, 0, cfg) == (0, 1, 2)


class TestRwpe:
    def test_single_edge_period_two(self):
        sub = EgoSubgraph(0, (0, 1), np.zeros((2, 0)), ((0, 1),))
        np.testing.assert_array_equal(with_positional_encodings(sub, 3).positional,
                                      [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])

    def test_isolated_node_zero_row(self):
        sub = EgoSubgraph(0, (0,), np.zeros((1, 0)), ())
        np.testing.assert_array_equal(with_positional_encodings(sub, 5).positional,
                                      np.zeros((1, 5)))

    def test_triangle_return_probability(self):
        # Oracle: direct 3x3 multiplication of (D^-1 A)^2 gives diagonal 1/2.
        sub = EgoSubgraph(0, (0, 1, 2), np.zeros((3, 0)),
                          ((0, 1), (0, 2), (1, 2)))
        np.testing.assert_allclose(with_positional_encodings(sub, 2).positional,
                                   [[0.0, 0.5]] * 3, atol=1e-15)

    def test_rows_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            edges = tuple(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.4
            )
            sub = EgoSubgraph(0, tuple(range(n)), np.zeros((n, 0)), edges)
            values = with_positional_encodings(sub, 6).positional
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_relabeling_permutes_rows(self):
        edges = ((0, 1), (1, 2), (0, 3))
        sub = EgoSubgraph(0, (0, 1, 2, 3), np.zeros((4, 0)), edges)
        perm = np.array([2, 0, 3, 1])  # new_label[i] = perm[i]
        inverse = np.argsort(perm)
        relabeled_edges = tuple(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        sub_p = EgoSubgraph(int(perm[0]), (0, 1, 2, 3), np.zeros((4, 0)),
                            tuple(sorted(relabeled_edges)))
        np.testing.assert_allclose(with_positional_encodings(sub, 4).positional,
                                   with_positional_encodings(sub_p, 4).positional[perm],
                                   atol=1e-15)

    def test_with_positional_attaches(self, tiny_graph):
        sub = rwr_sample(tiny_graph, 0, SamplerConfig(node_budget=4, max_steps=50))
        sub = with_positional_encodings(sub, 7)
        assert sub.positional.shape == (len(sub.global_ids), 7)

    def test_equals_the_identity_power_loop(self):
        graph = make_synthetic_tag(150, seed=6, intra_edge_prob=0.1, inter_edge_prob=0.01)
        for budget in (1, 2, 8, 16, 30, 48):
            cfg = SamplerConfig(node_budget=budget, max_steps=400, rng_seed=budget)
            for node in range(0, graph.num_nodes, 5):
                sub = rwr_sample(graph, node, cfg)
                for powers in (1, 8, 16):
                    got = with_positional_encodings(sub, powers).positional
                    assert got.tobytes() == loop_rwpe(sub, powers).tobytes()

    def test_rejects_zero_powers(self):
        sub = EgoSubgraph(0, (0,), np.zeros((1, 0)), ())
        with pytest.raises(ValidationError):
            with_positional_encodings(sub, 0)
