"""Graph encoder: invariances, presets, checkpoints."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagsum.autodiff as ad
from tagsum.autodiff import Tensor
from tagsum.encoder import (
    CHECKPOINT_MAGIC,
    MIXING_PARAMS,
    GraphEncoderConfig,
    ParamStore,
    embed_batch,
    encode_batch,
    encode_graph,
    encode_graph_tensor,
    load_checkpoint,
    mixing_sublayer,
    pad_batch,
    parameter_count,
    parameter_shapes,
    preset_config,
    preset_total_parameter_count,
    save_checkpoint,
    sentence_encoder_parameter_count,
)
from tagsum.errors import ShapeError, TagsumError, ValidationError
from tagsum.graphs import (
    EgoSubgraph,
    SamplerConfig,
    TextAttributedGraph,
    rwr_sample,
    with_positional_encodings,
)
from tagsum.losses import contrastive_loss_tensor, supervised_contrastive_loss_tensor
from tagsum.pretrain import AdamW, OptimizerConfig
from tagsum.synthetic import make_synthetic_tag

from conftest import TOY_ENCODER, sample_batch
from reference import query_major_mixing

CFG = GraphEncoderConfig(layers=2, hidden=16, heads=4, positional_dim=4, text_dim=6)


def random_subgraph(n, cfg, seed=0, edge_prob=0.6):
    rng = np.random.default_rng(seed)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < edge_prob)
    sub = EgoSubgraph(0, tuple(range(n)), rng.normal(size=(n, cfg.text_dim)), edges)
    return with_positional_encodings(sub, cfg.positional_dim)


class TestForward:
    def test_output_unit_norm(self):
        store = ParamStore.initialize(CFG, seed=0)
        emb = encode_graph(store, CFG, random_subgraph(5, CFG))
        assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-12

    def test_single_node_subgraph(self):
        store = ParamStore.initialize(CFG, seed=0)
        sub = random_subgraph(1, CFG)
        emb = encode_graph(store, CFG, sub)
        assert emb.vector.shape == (CFG.text_dim,)
        assert abs(np.linalg.norm(emb.vector) - 1.0) < 1e-12

    def test_permutation_invariance(self):
        store = ParamStore.initialize(CFG, seed=1)
        rng = np.random.default_rng(4)
        sub = random_subgraph(6, CFG, seed=2)
        emb = encode_graph(store, CFG, sub)
        perm = rng.permutation(6)
        inverse = np.argsort(perm)
        edges = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in sub.edges))
        permuted = EgoSubgraph(
            int(perm[sub.center_local_id]), tuple(range(6)),
            sub.features[inverse], edges,
            positional=sub.positional[inverse])
        emb_p = encode_graph(store, CFG, permuted)
        np.testing.assert_allclose(emb.vector, emb_p.vector, atol=1e-10)

    def test_feature_dim_mismatch_names_tensor(self):
        store = ParamStore.initialize(CFG, seed=0)
        bad = random_subgraph(3, GraphEncoderConfig(
            layers=2, hidden=16, heads=4, positional_dim=4, text_dim=9))
        with pytest.raises(ShapeError) as err:
            encode_graph(store, CFG, bad)
        assert "features" in str(err.value)

    def test_missing_positional_rejected(self):
        store = ParamStore.initialize(CFG, seed=0)
        sub = EgoSubgraph(0, (0, 1), np.zeros((2, CFG.text_dim)), ((0, 1),))
        with pytest.raises(ShapeError):
            encode_graph(store, CFG, sub)

    def test_feature_offset_changes_output(self):
        store = ParamStore.initialize(CFG, seed=0)
        sub = random_subgraph(4, CFG)
        base = encode_graph(store, CFG, sub)
        shifted = embed_batch(store, CFG, pad_batch(CFG, [sub]),
                              feature_offset=np.full(CFG.text_dim, 0.3))[0]
        assert np.linalg.norm(base.vector - shifted) > 1e-6

    def test_zero_offset_identical(self):
        store = ParamStore.initialize(CFG, seed=0)
        sub = random_subgraph(4, CFG)
        base = encode_graph(store, CFG, sub)
        zeroed = embed_batch(store, CFG, pad_batch(CFG, [sub]),
                             feature_offset=np.zeros(CFG.text_dim))[0]
        np.testing.assert_array_equal(base.vector, zeroed)


class TestPaddedBatch:
    def test_padding_invariance(self):
        # One padded batch of unequal subgraphs, one of them a single node,
        # against the same subgraphs encoded one at a time.
        store = ParamStore.initialize(CFG, seed=2)
        subs = [random_subgraph(n, CFG, seed=n) for n in (5, 1, 7, 3, 2, 6, 4, 8)]
        summaries = np.random.default_rng(9).normal(size=(len(subs), CFG.text_dim))
        summaries /= np.linalg.norm(summaries, axis=1, keepdims=True)

        z, x = encode_batch(store, CFG, pad_batch(CFG, subs))
        store.zero_grads()
        contrastive_loss_tensor(z, Tensor(summaries), 0.1).backward()
        batched = store.grad.copy()

        rows = [encode_graph_tensor(store, CFG, sub)[0] for sub in subs]
        for i, row in enumerate(rows):
            assert np.max(np.abs(z.data[i] - row.data[0])) <= 1e-12
        store.zero_grads()
        contrastive_loss_tensor(ad.concat(rows, axis=0), Tensor(summaries), 0.1).backward()
        np.testing.assert_allclose(batched, store.grad, rtol=0, atol=1e-12)
        for i, sub in enumerate(subs):
            assert np.all(x.grad[i, sub.num_nodes:] == 0.0)
        assert x.grad.shape == (len(subs), 8, CFG.text_dim)


class TestKeyMajorAttention:
    """The mixing sublayer keeps attention probabilities key-major; its
    output and gradients agree with the query-major form it replaced."""

    def test_matches_query_major_reference(self):
        cfg = TOY_ENCODER
        rng = np.random.default_rng(11)
        subs = [random_subgraph(n, cfg, seed=20 + n) for n in (1, 3, 16)]
        batch = pad_batch(cfg, subs)
        # Random values in every slot, biases and norm affine included.
        store = ParamStore(parameter_shapes(cfg),
                           rng.normal(scale=0.5, size=parameter_count(cfg)))
        h = Tensor(rng.normal(size=(len(subs), 16, cfg.hidden)), requires_grad=True)
        grad = rng.normal(size=h.data.shape)

        out = mixing_sublayer(h, batch, store, "layer0.", cfg.heads)
        out.backward(grad)
        want, dx, dparams = query_major_mixing(
            h.data, batch.neighbor_mean, batch.sizes,
            {name: store["layer0." + name].data for name in MIXING_PARAMS}, cfg.heads, grad)

        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h.grad, dx, rtol=0, atol=1e-12)
        for name in MIXING_PARAMS:
            np.testing.assert_allclose(store["layer0." + name].grad, dparams[name],
                                       rtol=0, atol=1e-12, err_msg=name)


class TestTape:
    def test_forward_records_few_op_nodes(self):
        # Each sublayer is one op: input projection, mixing and FFN per
        # layer, readout. The parameters are not on the tape.
        store = ParamStore.initialize(TOY_ENCODER, seed=0)
        subs = [random_subgraph(n, TOY_ENCODER, seed=n) for n in (5, 1, 8)]
        out, _ = encode_batch(store, TOY_ENCODER, pad_batch(TOY_ENCODER, subs))
        reached, stack = {}, [out]
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached[id(node)] = node
                stack.extend(node._parents)
        ops = sum(1 for node in reached.values() if node._backward is not None)
        assert ops == 2 + 2 * TOY_ENCODER.layers
        assert not reached.keys() & {id(t) for t in store.tensors.values()}

    def test_frozen_store_gives_the_trainable_feature_gradient(self):
        store = ParamStore.initialize(TOY_ENCODER, seed=1)
        frozen = ParamStore(store.shapes, store.data, trainable=False)
        batch = pad_batch(TOY_ENCODER, [random_subgraph(n, TOY_ENCODER, seed=n)
                                        for n in (5, 1, 8, 3)])
        classes = np.random.default_rng(4).normal(size=(2, TOY_ENCODER.text_dim))
        classes /= np.linalg.norm(classes, axis=1, keepdims=True)
        feature_grads = []
        for s in (frozen, store):
            z, x = encode_batch(s, TOY_ENCODER, batch)
            supervised_contrastive_loss_tensor(z, np.array([0, 1, 0, 1]), classes,
                                               0.1).backward()
            feature_grads.append(x.grad)
        assert frozen.grad is None
        assert np.any(store.grad != 0.0)
        assert feature_grads[0].tobytes() == feature_grads[1].tobytes()


class TestEncodeSubgraphs:
    """Inference over a padded batch of subgraphs: ``embed_batch`` of ``pad_batch``."""

    def test_matches_the_tape_on_mixed_sizes(self):
        store = ParamStore.initialize(CFG, seed=4)
        subs = [random_subgraph(n, CFG, seed=10 + n) for n in (3, 8, 1, 5, 8, 2)]
        offset = np.random.default_rng(5).normal(size=CFG.text_dim)
        for feature_offset in (None, offset):
            got = embed_batch(store, CFG, pad_batch(CFG, subs), feature_offset)
            assert got.shape == (len(subs), CFG.text_dim)
            for row, sub in zip(got, subs):
                features = sub.features if feature_offset is None \
                    else sub.features + feature_offset
                want, _ = encode_graph_tensor(store, CFG, sub, Tensor(features))
                assert np.max(np.abs(row - want.data[0])) <= 1e-12

    def test_records_no_tape(self):
        store = ParamStore.initialize(CFG, seed=4)
        created = []
        init = Tensor.__init__

        def counting(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            created.append(tensor)
        Tensor.__init__ = counting
        try:
            embed_batch(store, CFG,
                        pad_batch(CFG, [random_subgraph(4, CFG), random_subgraph(2, CFG)]))
        finally:
            Tensor.__init__ = init
        assert created and all(t._parents == () and t._backward is None for t in created)
        assert all(np.all(t.grad == 0.0) for t in store.tensors.values())


class TestSampleBatch:
    @pytest.fixture(scope="class")
    def graph(self):
        base = make_synthetic_tag(160, seed=8, intra_edge_prob=0.1, inter_edge_prob=0.01)
        return TextAttributedGraph.from_edges(
            base.num_nodes, base.edges, base.raw_text,
            features=np.random.default_rng(8).normal(size=(base.num_nodes, CFG.text_dim)))

    @staticmethod
    def assert_equals_reference(graph, nodes, cfg, excluded):
        got = sample_batch(CFG, graph, nodes, cfg, excluded)
        want = pad_batch(CFG, [
            with_positional_encodings(rwr_sample(graph, node, cfg, edge), CFG.positional_dim)
            for node, edge in zip(nodes, excluded or [None] * len(nodes))])
        for name in ("features", "positional", "neighbor_mean", "sizes"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        return got

    @pytest.mark.parametrize("budget, restart_prob", [(1, 0.5), (8, 0.3), (16, 0.7), (30, 0.7)])
    def test_equals_pad_batch_of_sampled_subgraphs(self, graph, budget, restart_prob):
        cfg = SamplerConfig(restart_prob=restart_prob, node_budget=budget, max_steps=400,
                            rng_seed=budget)
        rng = np.random.default_rng(budget)
        for _ in range(6):
            nodes, excluded = [], []
            for _ in range(int(rng.integers(1, 17))):
                u, v = graph.edges[int(rng.integers(len(graph.edges)))]
                kind = int(rng.integers(3))      # free node, or an endpoint of its left-out edge
                nodes.append(int(rng.integers(graph.num_nodes)) if kind == 0 else (u, v)[kind - 1])
                excluded.append(None if kind == 0 else ((u, v) if rng.random() < 0.5 else (v, u)))
            self.assert_equals_reference(graph, nodes, cfg, excluded)
            self.assert_equals_reference(graph, nodes, cfg, None)

    def test_mixed_sizes_in_one_batch(self, graph):
        cfg = SamplerConfig(restart_prob=0.7, node_budget=30, max_steps=400, rng_seed=2)
        nodes = list(range(0, 160, 5))
        excluded = [(node, int(graph.neighbors[node][0]))
                    if i % 2 and len(graph.neighbors[node]) else None
                    for i, node in enumerate(nodes)]
        assert sum(edge is not None for edge in excluded) > 10
        batch = self.assert_equals_reference(graph, nodes, cfg, excluded)
        assert len(set(batch.sizes.tolist())) > 3 and batch.sizes.max() == 30

    def test_featureless_graph_rejected(self):
        graph = TextAttributedGraph.from_edges(3, [(0, 1)], [""] * 3)
        with pytest.raises(ShapeError):
            sample_batch(CFG, graph, [0], SamplerConfig())

    def test_embeds_like_pad_batch_of_sampled_subgraphs(self, graph):
        store = ParamStore.initialize(CFG, seed=6)
        cfg = SamplerConfig(node_budget=12, max_steps=100)
        offset = np.random.default_rng(1).normal(size=CFG.text_dim)
        subs = [with_positional_encodings(rwr_sample(graph, node, cfg), CFG.positional_dim)
                for node in (3, 40, 77)]
        for feature_offset in (None, offset):
            np.testing.assert_array_equal(
                embed_batch(store, CFG, sample_batch(CFG, graph, [3, 40, 77], cfg),
                            feature_offset),
                embed_batch(store, CFG, pad_batch(CFG, subs), feature_offset))


class TestParamStore:
    def test_every_tensor_has_grad_slot(self):
        store = ParamStore.initialize(CFG, seed=0)
        for name in store.names():
            tensor = store[name]
            assert tensor.grad is not None
            assert tensor.grad.shape == tensor.data.shape

    def test_init_deterministic(self):
        a = ParamStore.initialize(CFG, seed=3)
        b = ParamStore.initialize(CFG, seed=3)
        assert a.checksum() == b.checksum()
        assert a.checksum() != ParamStore.initialize(CFG, seed=4).checksum()

    def test_count_matches_shapes(self):
        store = ParamStore.initialize(CFG, seed=0)
        assert store.parameter_count() == parameter_count(CFG)

    @staticmethod
    def assert_views_tile_the_buffers(store, order):
        start = 0
        for name in order:
            tensor = store[name]
            end = start + tensor.data.size
            assert np.shares_memory(tensor.data, store.data), name
            assert np.shares_memory(tensor.grad, store.grad), name
            assert tensor.data.ctypes.data == store.data[start:end].ctypes.data, name
            assert tensor.grad.ctypes.data == store.grad[start:end].ctypes.data, name
            start = end
        assert start == store.data.size == store.grad.size

    def test_initialized_tensors_are_views_of_the_flat_buffers(self):
        store = ParamStore.initialize(CFG, seed=3)
        self.assert_views_tile_the_buffers(store, sorted(parameter_shapes(CFG)))
        # The draws of one generator, weight by weight in parameter_shapes order.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        for name, shape in parameter_shapes(CFG).items():
            if name.endswith(".weight"):
                bound = 1.0 / np.sqrt(shape[0])
                want = rng.uniform(-bound, bound, size=shape)
            else:
                want = np.full(shape, 1.0 if name.endswith(".gain") else 0.0)
            assert store[name].data.tobytes() == want.tobytes(), name

    def test_loaded_tensors_are_views_of_the_flat_buffers(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=3)
        save_checkpoint(tmp_path / "ck.bin", store, CFG)
        loaded, _, _ = load_checkpoint(tmp_path / "ck.bin")
        self.assert_views_tile_the_buffers(loaded, store.names())    # file order
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes(), name
        loaded.grad[...] = 1.0
        assert all(np.all(loaded[name].grad == 1.0) for name in loaded.names())

    def test_a_saved_and_loaded_store_has_the_same_flat_bytes(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=3)
        save_checkpoint(tmp_path / "ck.bin", store, CFG)
        loaded, _, _ = load_checkpoint(tmp_path / "ck.bin")
        assert loaded.data.tobytes() == store.data.tobytes()
        # One flat gradient drives AdamW over either store to the same bytes,
        # its moment vectors included.
        grad = np.random.default_rng(0).normal(size=store.data.size)
        optimizers = []
        for s in (store, loaded):
            s.grad[...] = grad
            optimizers.append(AdamW(s.data, s.grad, OptimizerConfig(lr=1e-2, weight_decay=1e-2)))
            optimizers[-1].step()
        assert loaded.data.tobytes() == store.data.tobytes()
        assert optimizers[0].m.tobytes() == optimizers[1].m.tobytes()
        assert optimizers[0].v.tobytes() == optimizers[1].v.tobytes()


class TestScalePresets:
    def test_shapes_per_preset(self):
        for name, (layers, hidden) in (("small", (4, 512)), ("medium", (8, 768)),
                                       ("base", (12, 1024)), ("large", (16, 1024))):
            cfg = preset_config(name)
            assert (cfg.layers, cfg.hidden) == (layers, hidden)

    def test_published_totals(self):
        # Params column counts graph tower plus the frozen 22.7M text tower.
        published = {"small": 33e6, "medium": 71e6, "base": 150e6, "large": 192e6}
        for name, target in published.items():
            total = preset_total_parameter_count(name)
            assert abs(total - target) / target < 0.05, (name, total)

    def test_base_within_5pct_of_150m(self):
        total = preset_total_parameter_count("base")
        assert abs(total - 150e6) / 150e6 < 0.05

    def test_text_tower_count(self):
        assert sentence_encoder_parameter_count() == 22_713_216

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_config("huge")

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValidationError):
            GraphEncoderConfig(layers=1, hidden=10, heads=3,
                               positional_dim=2, text_dim=4)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=5)
        path = tmp_path / "model.bin"
        save_checkpoint(path, store, CFG, metadata={"lr": 1e-5, "note": "x"})
        loaded, cfg, meta = load_checkpoint(path)
        assert cfg == CFG
        assert meta["lr"] == 1e-5
        assert loaded.checksum() == store.checksum()

    def test_bytes_deterministic(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, store, CFG, metadata={"k": 1})
        save_checkpoint(p2, store, CFG, metadata={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_rejected(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=0)
        path = tmp_path / "model.bin"
        save_checkpoint(path, store, CFG)
        raw = bytearray(path.read_bytes())
        # bump the version integer inside the JSON header
        idx = raw.find(b'"format_version":1')
        raw[idx:idx + len(b'"format_version":1')] = b'"format_version":9'
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAC KPT" + b"\x00" * 100)
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_truncated_or_extended_rejected(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=0)
        path = tmp_path / "model.bin"
        save_checkpoint(path, store, CFG)
        raw = path.read_bytes()
        header_end = 12 + int.from_bytes(raw[8:12], "little")
        for cut in (10, 12, header_end - 1, header_end + 4, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValidationError):
                load_checkpoint(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_loaded_model_encodes_identically(self, tmp_path):
        store = ParamStore.initialize(CFG, seed=6)
        sub = random_subgraph(4, CFG, seed=7)
        before = encode_graph(store, CFG, sub).vector
        path = tmp_path / "m.bin"
        save_checkpoint(path, store, CFG)
        loaded, cfg, _ = load_checkpoint(path)
        np.testing.assert_array_equal(before, encode_graph(loaded, cfg, sub).vector)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _valid_checkpoint_parts():
    """(header dict, tensor bytes) of a valid one-layer checkpoint."""
    cfg = GraphEncoderConfig(layers=1, hidden=2, heads=1, positional_dim=1, text_dim=1)
    store = ParamStore.initialize(cfg, seed=1)
    header = {"format_version": 1, "metadata": {},
              "config": {"layers": 1, "hidden": 2, "heads": 1,
                         "positional_dim": 1, "text_dim": 1},
              "tensors": [{"name": n, "shape": list(store[n].data.shape)}
                          for n in store.names()]}
    blob = b"".join(store[n].data.astype("<f8").tobytes() for n in store.names())
    return header, blob


VALID_HEADER, VALID_BLOB = _valid_checkpoint_parts()


@st.composite
def framed_headers(draw):
    """A correct length prefix around a JSON header: either any JSON value or
    a valid header with one field replaced, then the valid tensor bytes or
    arbitrary ones."""
    header = dict(VALID_HEADER)
    if draw(st.booleans()):
        header[draw(st.sampled_from(sorted(header) + ["extra"]))] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        header = draw(JSON_VALUES)
    blob = json.dumps(header).encode()
    tail = draw(st.sampled_from([VALID_BLOB, VALID_BLOB[:-1], b""]) | st.binary(max_size=64))
    return struct.pack("<I", len(blob)) + blob + tail


class TestCheckpointProperty:
    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=64) | framed_headers())
    def test_any_bytes_after_magic_load_or_raise_tagsum_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(CHECKPOINT_MAGIC + body)
        try:
            load_checkpoint(path)
        except TagsumError:
            pass
