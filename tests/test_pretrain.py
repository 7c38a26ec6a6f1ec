"""Adversarial inner loop and the outer training loop."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from tagsum.autodiff import Tensor
from tagsum.corpus import GraphSummaryPair
from tagsum.encoder import (
    GraphEncoderConfig,
    ParamStore,
    encode_batch,
    load_checkpoint,
    pad_batch,
)
from tagsum.errors import NonFiniteLossError, ValidationError
from tagsum.graphs import (
    SamplerConfig,
    TextAttributedGraph,
    rwr_sample,
    with_positional_encodings,
)
from tagsum.losses import contrastive_loss_tensor
from tagsum.pretrain import (
    AdamW,
    OptimizerConfig,
    PerturbationState,
    ascent_direction,
    inner_maximize,
    materialize_subgraphs,
    pretrain,
    project_block,
)
from tagsum.synthetic import make_synthetic_pairs, make_synthetic_tag
from tagsum.textenc import HashTextEncoder, attach_features

from reference import loop_adamw_step

CFG = GraphEncoderConfig(layers=1, hidden=8, heads=2, positional_dim=3, text_dim=6)
SAMPLER = SamplerConfig(node_budget=5, max_steps=40)


@pytest.fixture(scope="module")
def small_task():
    enc = HashTextEncoder(dim=6)
    graph = attach_features(make_synthetic_tag(30, seed=1, graph_id="src"), enc)
    pairs = make_synthetic_pairs(graph, range(12))
    subs = materialize_subgraphs(pairs, {"src": graph}, SAMPLER, CFG)
    summaries = np.vstack([enc.encode(p.summary).vector for p in pairs])
    return enc, graph, pairs, subs, summaries


class TestPerturbationState:
    def test_epsilon_zero_allowed(self):
        state = PerturbationState(epsilon=0.0)
        assert state.epsilon == 0.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            PerturbationState(epsilon=-1.0)

    def test_bad_norm_rejected(self):
        with pytest.raises(ValidationError):
            PerturbationState(norm_p=1.0)

    def test_default_step_size(self):
        state = PerturbationState(epsilon=0.03, inner_steps=3)
        assert abs(state.alpha - 0.01) < 1e-15


class TestProjection:
    def test_l2_inside_untouched(self):
        block = np.full((3, 2), 1e-4)
        np.testing.assert_array_equal(project_block(block, 1e-2, 2.0), block)

    def test_l2_outside_scaled_to_boundary(self):
        block = np.ones((4, 4))
        projected = project_block(block, 1e-2, 2.0)
        assert abs(np.linalg.norm(projected) - 1e-2) < 1e-15

    def test_linf_clipped(self):
        block = np.array([[0.5, -0.5], [0.001, 0.0]])
        projected = project_block(block, 1e-2, float("inf"))
        assert np.abs(projected).max() <= 1e-2

    def test_zero_gradient_direction_none(self):
        np.testing.assert_array_equal(ascent_direction(np.zeros((2, 2)), 2.0),
                                      np.zeros((2, 2)))
        np.testing.assert_array_equal(ascent_direction(np.zeros((2, 2)), float("inf")),
                                      np.zeros((2, 2)))


class TestMaterializeSubgraphs:
    """Pairs are sampled once into one padded batch; a step's rows equal
    ``pad_batch`` of the same pairs sampled one at a time."""

    SAMPLER = SamplerConfig(restart_prob=0.7, node_budget=6, max_steps=8)

    @pytest.fixture(scope="class")
    def task(self):
        enc = HashTextEncoder(dim=6)
        src = attach_features(make_synthetic_tag(30, seed=1, graph_id="src"), enc)
        # Node 0 is isolated: its subgraph is the seed alone.
        other = attach_features(TextAttributedGraph.from_edges(
            8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (2, 5)],
            [f"node {i}" for i in range(8)], graph_id="other"), enc)
        pairs = []
        for i in range(24):
            graph_id, seed_id = ("src", i) if i % 2 else ("other", i % 8)
            pairs.append(GraphSummaryPair(graph_id, seed_id, 7 * (i % 3 == 0),
                                          "academic", "s", 1))
        return {"src": src, "other": other}, pairs

    def reference(self, graphs, pairs):
        return pad_batch(CFG, [with_positional_encodings(
            rwr_sample(graphs[p.graph_id], p.seed_id,
                       dataclasses.replace(self.SAMPLER, rng_seed=p.sampler_seed)),
            CFG.positional_dim) for p in pairs])

    def test_rows_equal_pad_batch_of_sampled_subgraphs(self, task):
        graphs, pairs = task
        batch = materialize_subgraphs(pairs, graphs, self.SAMPLER, CFG)
        assert len(batch) == len(pairs)
        assert {(p.graph_id, p.sampler_seed) for p in pairs} == {
            ("src", 0), ("src", 7), ("other", 0), ("other", 7)}
        assert 1 in batch.sizes.tolist() and len(set(batch.sizes.tolist())) >= 3
        rng = np.random.default_rng(0)
        row_sets = [np.arange(len(pairs)), rng.permutation(len(pairs))[:5],
                    np.flatnonzero(batch.sizes == 1), np.flatnonzero(batch.sizes <= 3)[::-1]]
        row_sets += [rng.choice(len(pairs), size=k, replace=False) for k in (1, 4, 16)]
        for rows in row_sets:
            got = batch.take(rows)
            want = self.reference(graphs, [pairs[i] for i in rows])
            assert len(got) == len(rows)
            for name in ("features", "positional", "neighbor_mean", "sizes"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_unknown_graph_rejected(self, task):
        graphs, pairs = task
        with pytest.raises(ValidationError, match="unknown graph 'other'"):
            materialize_subgraphs(pairs, {"src": graphs["src"]}, self.SAMPLER, CFG)

    def test_featureless_graph_rejected(self, task):
        graphs, pairs = task
        bare = dataclasses.replace(graphs["other"], features=None)
        with pytest.raises(ValidationError, match="has no features"):
            materialize_subgraphs(pairs, {**graphs, "other": bare}, self.SAMPLER, CFG)


class TestInnerMaximize:
    def test_epsilon_zero_equals_clean(self, small_task):
        _, _, _, subs, summaries = small_task
        store = ParamStore.initialize(CFG, seed=0)
        pert = PerturbationState(epsilon=0.0, inner_steps=3)
        batch = subs.take([0, 1, 2, 3])
        result = inner_maximize(store, CFG, batch, summaries[:4], pert, 0.1)
        h, _ = encode_batch(store, CFG, batch)
        loss = contrastive_loss_tensor(h, Tensor(summaries[:4]), 0.1)
        store.zero_grads()
        loss.backward()
        assert result.final_loss == loss.item()
        for name, grad in store.gradients().items():
            np.testing.assert_array_equal(result.gradients[name], grad)

    def test_block_norms_bounded(self, small_task):
        _, _, _, subs, summaries = small_task
        store = ParamStore.initialize(CFG, seed=0)
        pert = PerturbationState(epsilon=1e-2, inner_steps=3)
        result = inner_maximize(store, CFG, subs.take([0, 1, 2, 3]), summaries[:4], pert, 0.1)
        assert result.max_block_norm <= 1e-2 + 1e-12
        assert np.all(result.delta_norms <= 1e-2 + 1e-12)

    def test_ascent_property(self, small_task):
        # With frozen parameters, the M-step maximization should not reduce
        # the loss in the overwhelming majority of random batches.
        _, _, _, subs, summaries = small_task
        rng = np.random.default_rng(0)
        wins = 0
        trials = 100
        for trial in range(trials):
            store = ParamStore.initialize(CFG, seed=trial)
            ids = rng.choice(len(subs), size=4, replace=False)
            pert = PerturbationState(epsilon=1e-2, inner_steps=3)
            result = inner_maximize(store, CFG, subs.take(ids), summaries[ids], pert, 0.1)
            if result.final_loss >= result.first_loss - 1e-12:
                wins += 1
        assert wins >= 95

    def test_linf_ball(self, small_task):
        _, _, _, subs, summaries = small_task
        store = ParamStore.initialize(CFG, seed=0)
        pert = PerturbationState(epsilon=1e-3, norm_p=float("inf"), inner_steps=2)
        result = inner_maximize(store, CFG, subs.take([0, 1, 2]), summaries[:3], pert, 0.1)
        for block in result.delta_blocks:
            assert np.abs(block).max() <= 1e-3 + 1e-15

    def test_zero_gradient_steps_skipped(self, small_task):
        # A single-pair batch has constant loss 0, so the delta gradient is
        # exactly zero and every ascent step must be skipped and counted.
        _, _, _, subs, summaries = small_task
        store = ParamStore.initialize(CFG, seed=0)
        pert = PerturbationState(epsilon=1e-2, inner_steps=3)
        result = inner_maximize(store, CFG, subs.take([0]), summaries[:1], pert, 0.1)
        assert result.skipped_zero_grad_steps == 3
        assert result.final_loss == 0.0
        np.testing.assert_array_equal(result.delta_blocks[0],
                                      np.zeros((subs.sizes[0], CFG.text_dim)))


class TestAdamW:
    def test_decoupled_decay_pulls_to_zero(self):
        from tagsum.autodiff import Tensor

        tensor = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = AdamW({"w": tensor}, OptimizerConfig(lr=0.1, weight_decay=0.5))
        for _ in range(50):
            optimizer.step({"w": np.zeros(1)})
        assert abs(float(tensor.data[0])) < 1.0

    def test_flat_update_equals_the_per_array_loop(self):
        rng = np.random.default_rng(0)
        shapes = {"b": (3,), "a.weight": (4, 5), "c": (2, 3, 2), "d": ()}
        tensors = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                   for name, shape in shapes.items()}
        loop = {name: t.data.copy() for name, t in tensors.items()}
        optimizer = AdamW(tensors, OptimizerConfig(lr=3e-2, weight_decay=1e-2))
        state = {}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            optimizer.step(grads)
            loop_adamw_step(state, loop, grads, 3e-2, 1e-2, t)
            for name in shapes:
                assert tensors[name].data.tobytes() == loop[name].tobytes(), (t, name)

    def test_metadata_defaults_match_published(self):
        cfg = OptimizerConfig()
        assert cfg.lr == 1e-5
        assert cfg.weight_decay == 1e-5


class TestPretrainLoop:
    def make_run(self, small_task, tmp_path, pert, seed=3, out=None, epochs=2):
        enc, graph, pairs, _, _ = small_task
        return pretrain(
            pairs, {"src": graph}, enc, CFG,
            OptimizerConfig(lr=1e-3, weight_decay=1e-5), pert,
            epochs=epochs, batch_size=4, seed=seed, sampler_cfg=SAMPLER,
            out_dir=out,
        )

    def test_determinism_bit_identical(self, small_task, tmp_path):
        pert = PerturbationState(epsilon=1e-2, inner_steps=2)
        a = self.make_run(small_task, tmp_path, pert, out=tmp_path / "a")
        pert2 = PerturbationState(epsilon=1e-2, inner_steps=2)
        b = self.make_run(small_task, tmp_path, pert2, out=tmp_path / "b")
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
               (tmp_path / "b" / "checkpoint.bin").read_bytes()

    def test_epsilon_zero_bit_identical_to_disabled(self, small_task, tmp_path):
        a = self.make_run(small_task, tmp_path,
                          PerturbationState(epsilon=0.0, inner_steps=3),
                          out=tmp_path / "eps0")
        b = self.make_run(small_task, tmp_path, None, out=tmp_path / "noadv")
        assert (tmp_path / "eps0" / "checkpoint.bin").read_bytes() == \
               (tmp_path / "noadv" / "checkpoint.bin").read_bytes()
        assert a.metrics == b.metrics

    def test_loss_decreases(self, small_task, tmp_path):
        result = self.make_run(small_task, tmp_path,
                               PerturbationState(epsilon=1e-2, inner_steps=2),
                               epochs=6)
        assert result.metrics[-1]["loss"] < result.metrics[0]["loss"]

    def test_metrics_csv_columns(self, small_task, tmp_path):
        self.make_run(small_task, tmp_path,
                      PerturbationState(epsilon=1e-2, inner_steps=2),
                      out=tmp_path / "run")
        with open(tmp_path / "run" / "metrics.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "epoch", "loss", "alignment", "uniformity",
                           "delta_norm_mean", "lr"]
        assert len(rows) > 1

    def test_checkpoint_metadata_records_optimizer(self, small_task, tmp_path):
        enc, graph, pairs, _, _ = small_task
        pretrain(pairs, {"src": graph}, enc, CFG, OptimizerConfig(),
                 PerturbationState(epsilon=1e-2, inner_steps=3),
                 epochs=1, batch_size=4, seed=0, sampler_cfg=SAMPLER,
                 out_dir=tmp_path / "meta")
        _, _, meta = load_checkpoint(tmp_path / "meta" / "checkpoint.bin")
        assert meta["lr"] == 1e-5
        assert meta["weight_decay"] == 1e-5
        assert meta["epsilon"] == 1e-2
        assert meta["inner_steps"] == 3

    def test_text_encoder_checksum_verified(self, small_task, tmp_path):
        result = self.make_run(small_task, tmp_path, None)
        assert result.text_encoder_frozen

    def test_delta_norm_trace_recorded(self, small_task, tmp_path):
        result = self.make_run(small_task, tmp_path,
                               PerturbationState(epsilon=1e-2, inner_steps=2))
        assert result.delta_norm_trace
        worst = max(float(d.max()) for d in result.delta_norm_trace if d.size)
        assert worst <= 1e-2 + 1e-12

    def test_empty_dataset_rejected(self, small_task):
        enc, graph, _, _, _ = small_task
        with pytest.raises(ValidationError):
            pretrain([], {"src": graph}, enc, CFG, None, None,
                     epochs=1, batch_size=4, seed=0)

    def test_nonfinite_loss_diagnostic(self, small_task):
        enc, graph, pairs, _, _ = small_task
        store_breaker = OptimizerConfig(lr=1e200)  # drive weights to overflow
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLossError) as err:
            pretrain(pairs, {"src": graph}, enc, CFG, store_breaker, None,
                     epochs=3, batch_size=4, seed=0, sampler_cfg=SAMPLER)
        assert "pair_keys" in err.value.dump

    def test_unknown_graph_id_rejected(self, small_task):
        enc, graph, pairs, _, _ = small_task
        with pytest.raises(ValidationError):
            pretrain(pairs, {"other": graph}, enc, CFG, None, None,
                     epochs=1, batch_size=4, seed=0, sampler_cfg=SAMPLER)


class TestConvergenceSmoke:
    def test_loss_halves_on_toy_corpus(self):
        # 200 class-correlated pairs, 30 epochs: the loss must fall well below
        # half its initial value (threshold calibrated on the
        # finite-difference-verified implementation; lr is desk-scale, the
        # published 1e-5 default targets the full-size model).
        enc = HashTextEncoder(dim=16)
        graph = attach_features(make_synthetic_tag(200, seed=0, graph_id="src"), enc)
        pairs = make_synthetic_pairs(graph, range(200))
        cfg = GraphEncoderConfig(layers=2, hidden=32, heads=4,
                                 positional_dim=8, text_dim=16)
        result = pretrain(
            pairs, {"src": graph}, enc, cfg,
            OptimizerConfig(lr=5e-3, weight_decay=1e-5),
            PerturbationState(epsilon=1e-2, inner_steps=3),
            epochs=30, batch_size=16, seed=0,
            sampler_cfg=SamplerConfig(node_budget=8, max_steps=64),
        )
        assert result.metrics[-1]["loss"] < 0.5 * result.metrics[0]["loss"]
        assert all(math.isfinite(row["loss"]) for row in result.metrics)
