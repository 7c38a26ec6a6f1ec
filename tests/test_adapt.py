"""Zero-shot classification, link prediction, prompt tuning."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tagsum.adapt import (
    FewShotSplit,
    LabelPromptSet,
    _cosines,
    _label_scores,
    _node_sampler_cfg,
    build_label_prompts,
    auc,
    evaluate_link_prediction,
    evaluate_node_classification,
    link_score,
    load_label_prompt_asset,
    make_few_shot_split,
    prompt_index_map,
    prompt_tune,
    save_label_prompt_asset,
    zero_shot_classify,
)
import tagsum.adapt
from tagsum.autodiff import Tensor
from tagsum.encoder import ParamStore, embed_batch, encode_batch, encode_graph_tensor
from tagsum.errors import TagsumError, ValidationError
from tagsum.gradcheck import central_difference, relative_error
from tagsum.graphs import TextAttributedGraph, rwr_sample, with_positional_encodings
from tagsum.losses import supervised_contrastive_loss_tensor
from tagsum.pretrain import AdamW, OptimizerConfig
from tagsum.textenc import attach_features
from tagsum.synthetic import CLASS_KEYWORDS

from conftest import TOY_ENCODER, TOY_SAMPLER, sample_batch
from reference import loop_auc


class TestZeroShotClassify:
    def test_exact_match_scores_one(self, label_prompts):
        cls, scores = zero_shot_classify(label_prompts.embeddings[2], label_prompts)
        assert cls == 2
        assert abs(scores[2] - 1.0) < 1e-12

    def test_orthogonal_ties_break_low(self, label_prompts):
        # Build a vector orthogonal to every label embedding.
        basis = label_prompts.embeddings
        vec = np.random.default_rng(0).normal(size=basis.shape[1])
        for row in basis:
            vec -= (vec @ row) * row / (row @ row)
        # Project out residual numerically, then verify scores all ~0.
        q, _ = np.linalg.qr(basis.T)
        vec = vec - q @ (q.T @ vec)
        cls, scores = zero_shot_classify(vec, label_prompts)
        assert np.all(np.abs(scores) < 1e-10)
        assert cls == 0

    def test_scale_invariance(self, label_prompts):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=label_prompts.embeddings.shape[1])
        cls1, _ = zero_shot_classify(vec, label_prompts)
        cls2, _ = zero_shot_classify(vec * 37.5, label_prompts)
        assert cls1 == cls2

    def test_rotation_invariance(self, label_prompts):
        rng = np.random.default_rng(2)
        dim = label_prompts.embeddings.shape[1]
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        vec = rng.normal(size=dim)
        cls1, scores1 = zero_shot_classify(vec, label_prompts)
        # rotate embeddings and the query by the same orthogonal map
        from tagsum.adapt import LabelPromptSet

        rotated_set = LabelPromptSet(
            label_prompts.class_names, label_prompts.sentences,
            label_prompts.embeddings @ q)
        cls2, scores2 = zero_shot_classify(vec @ q, rotated_set)
        assert cls1 == cls2
        np.testing.assert_allclose(scores1, scores2, atol=1e-10)

    def test_empty_label_set(self):
        from tagsum.adapt import LabelPromptSet

        empty = LabelPromptSet((), (), np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            zero_shot_classify(np.ones(3), empty)


class TestPromptIndexMap:
    def test_reordered_class_names_translate(self, text_encoder):
        # Graph loaders sort class names; the prompt asset may list them in
        # any order. Ids must join through names.
        from tagsum.adapt import prompt_index_map
        from tagsum.graphs import TextAttributedGraph

        graph = TextAttributedGraph.from_edges(
            3, [(0, 1)], ["a", "b", "c"],
            labels=np.array([0, 1, 2]),
            class_names=("alpha", "beta", "gamma"))
        prompts = build_label_prompts(["gamma", "alpha", "beta"],
                                      ["", "", ""], "{class} {class_desc}",
                                      text_encoder)
        mapping = prompt_index_map(graph, prompts)
        assert mapping.tolist() == [1, 2, 0]

    def test_missing_name_raises(self, text_encoder):
        from tagsum.adapt import prompt_index_map
        from tagsum.graphs import TextAttributedGraph

        graph = TextAttributedGraph.from_edges(
            2, [(0, 1)], ["a", "b"],
            labels=np.array([0, 1]), class_names=("alpha", "zeta"))
        prompts = build_label_prompts(["alpha", "beta"], ["", ""],
                                      "{class} {class_desc}", text_encoder)
        with pytest.raises(ValidationError) as err:
            prompt_index_map(graph, prompts)
        assert "zeta" in str(err.value)


class TestLabelAssets:
    def test_round_trip(self, tmp_path, text_encoder):
        path = tmp_path / "labels.json"
        save_label_prompt_asset(path, "{class} {class_desc}",
                                ["alpha", "beta"], ["first", "second"])
        prompts = load_label_prompt_asset(path, text_encoder)
        assert prompts.class_names == ("alpha", "beta")
        assert prompts.sentences[0] == "alpha first"

    def test_gapped_ids_rejected(self, tmp_path, text_encoder):
        path = tmp_path / "labels.json"
        path.write_text(
            '{"template": "{class} {class_desc}", "classes": ['
            '{"id": 0, "name": "a", "description": ""},'
            '{"id": 2, "name": "b", "description": ""}]}')
        with pytest.raises(ValidationError):
            load_label_prompt_asset(path, text_encoder)


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=False)
                | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8)
LABEL_ASSETS = st.fixed_dictionaries({
    "template": st.text(max_size=20) | JSON_VALUES,
    "classes": JSON_VALUES | st.lists(st.fixed_dictionaries(
        {"id": JSON_SCALARS, "name": st.text(max_size=8) | JSON_VALUES},
        optional={"description": st.text(max_size=8) | JSON_VALUES}), max_size=3),
})


class TestLabelAssetAnyBytes:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary() | JSON_VALUES.map(json.dumps).map(str.encode)
           | LABEL_ASSETS.map(json.dumps).map(str.encode))
    def test_succeeds_or_raises_tagsum_error(self, tmp_path, text_encoder, raw):
        path = tmp_path / "labels.json"
        path.write_bytes(raw)
        try:
            load_label_prompt_asset(path, text_encoder)
        except TagsumError:
            pass


def brute_force_auc(scores, truth):
    scores = np.asarray(scores)
    truth = np.asarray(truth, dtype=bool)
    pos = scores[truth]
    neg = scores[~truth]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_example_three_quarters(self):
        value = auc([0.9, 0.8, 0.3, 0.1], [True, False, True, False])
        assert value == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc([0.1, 0.2], [True, True])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(300):
            n = int(rng.integers(2, 200))
            # coarse grid scores force plenty of exact ties
            scores = rng.integers(0, 12, size=n) / 11.0
            truth = rng.random(n) < 0.5
            if truth.all() or not truth.any():
                continue
            assert auc(scores, truth) == pytest.approx(
                brute_force_auc(scores, truth), abs=1e-12)


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0,
                                               np.inf, np.nan]), st.booleans()),
                    min_size=2, max_size=60))
    def test_matches_the_frozen_loop_with_many_ties(self, items):
        # Scores from a few values, infinities and NaN among them: nearly
        # every score is tied, and the ranks must be the loop's bit for bit.
        scores, truth = zip(*items)
        assume(any(truth) and not all(truth))
        assert auc(scores, truth) == loop_auc(scores, truth)


class TestBatchedScores:
    """Node classification and link prediction score all nodes at once; each
    row equals ``zero_shot_classify`` and ``link_score`` bit for bit."""

    @staticmethod
    def rows(rng, num_rows, dim, axes):
        # Small integers give exact ties between classes on unit axes.
        if axes:
            return rng.integers(-1, 2, size=(num_rows, dim)).astype(np.float64)
        return rng.normal(size=(num_rows, dim)) * rng.choice([1e-3, 1.0, 1e3],
                                                             size=(num_rows, 1))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_classes=st.integers(1, 5),
           dim=st.integers(1, 6), num_rows=st.integers(1, 12), axes=st.booleans())
    def test_label_scores_match_zero_shot_classify(self, seed, num_classes, dim, num_rows,
                                                   axes):
        rng = np.random.default_rng(seed)
        if axes:
            classes = np.eye(dim)[rng.integers(dim, size=num_classes)]
            classes *= rng.choice([-1.0, 1.0], size=(num_classes, 1))
        else:
            classes = rng.normal(size=(num_classes, dim))
            classes /= np.linalg.norm(classes, axis=1, keepdims=True)
        classes[-1] = classes[0]                 # a duplicated class ties on every row
        names = tuple(f"class{i}" for i in range(num_classes))
        labels = LabelPromptSet(names, names, classes)
        embeddings = self.rows(rng, num_rows, dim, axes)
        embeddings[0] = 0.0
        scores = _label_scores(embeddings, labels)
        for row, got in zip(embeddings, scores):
            predicted, want = zero_shot_classify(row, labels)
            np.testing.assert_array_equal(got, want)
            assert int(np.argmax(got)) == predicted

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
           num_rows=st.integers(4, 12), axes=st.booleans())
    def test_cosines_match_link_score(self, seed, dim, num_rows, axes):
        rng = np.random.default_rng(seed)
        a, b = self.rows(rng, num_rows, dim, axes), self.rows(rng, num_rows, dim, axes)
        a[0] = 0.0
        b[1] = 0.0
        b[2] = a[2]                              # cosine 1 up to rounding: clipped
        b[3] = -3.0 * a[3]
        assert _cosines(a, b).tolist() == [link_score(u, v) for u, v in zip(a, b)]


class TestOnePassPerRequest:
    """A request walks once, whatever its number of runs; its runs are those
    of single-run requests at the same seeds."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        original = tagsum.adapt.rwr_batch

        def counting(graph, nodes, seeds, cfg, excluded):
            calls.append(len(nodes))
            return original(graph, nodes, seeds, cfg, excluded)
        monkeypatch.setattr(tagsum.adapt, "rwr_batch", counting)
        return calls

    @pytest.mark.parametrize("num_runs", [1, 4])
    def test_one_walk_per_request(self, walks, trained_model, target_graph, label_prompts,
                                  num_runs):
        evaluate_node_classification(trained_model.store, TOY_ENCODER, target_graph,
                                     label_prompts, TOY_SAMPLER, test_fraction=0.25,
                                     num_runs=num_runs)
        labeled = int(np.sum(target_graph.labels >= 0))
        assert walks == [num_runs * round(0.25 * labeled)]
        walks.clear()
        evaluate_link_prediction(trained_model.store, TOY_ENCODER, target_graph, TOY_SAMPLER,
                                 test_fraction=0.1, num_runs=num_runs)
        assert walks == [num_runs * 4 * round(0.1 * len(target_graph.edges))]

    def test_prompt_tune_walks_twice(self, walks, trained_model, target_graph,
                                     label_prompts):
        split = make_few_shot_split(target_graph, shots=2, seed=3)
        prompt_tune(trained_model.store, TOY_ENCODER, target_graph, split, label_prompts,
                    epochs=3, sampler_cfg=TOY_SAMPLER)
        assert walks == [3 * len(split.train_ids), len(split.test_ids)]

    def test_runs_equal_single_run_requests(self, target_graph, label_prompts):
        store = ParamStore.initialize(TOY_ENCODER, seed=8)
        nc = evaluate_node_classification(store, TOY_ENCODER, target_graph, label_prompts,
                                          TOY_SAMPLER, test_fraction=0.3, num_runs=3,
                                          base_seed=11)
        assert nc.runs == [
            evaluate_node_classification(store, TOY_ENCODER, target_graph, label_prompts,
                                         TOY_SAMPLER, test_fraction=0.3, num_runs=1,
                                         base_seed=seed).runs[0]
            for seed in (11, 12, 13)]
        lp = evaluate_link_prediction(store, TOY_ENCODER, target_graph, TOY_SAMPLER,
                                      test_fraction=0.2, num_runs=3, base_seed=11)
        assert lp.runs == [
            evaluate_link_prediction(store, TOY_ENCODER, target_graph, TOY_SAMPLER,
                                     test_fraction=0.2, num_runs=1, base_seed=seed).runs[0]
            for seed in (11, 12, 13)]


class TestLinkScore:
    def test_cosine_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert -1.0 <= link_score(a, b) <= 1.0

    def test_identical_vectors(self):
        v = np.array([0.3, 0.4])
        assert link_score(v, v) == pytest.approx(1.0)


class TestFewShotSplit:
    def test_exact_shots_per_class(self, target_graph):
        split = make_few_shot_split(target_graph, shots=5, seed=0)
        labels = target_graph.labels
        for c in range(3):
            count = sum(1 for i in split.train_ids if labels[i] == c)
            assert count == 5
        assert not set(split.train_ids) & set(split.test_ids)

    def test_zero_shots_rejected(self, target_graph):
        with pytest.raises(ValidationError):
            make_few_shot_split(target_graph, shots=0, seed=0)

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            FewShotSplit(shots=1, train_ids=(0, 1), test_ids=(1, 2), seed=0)

    def test_pinned_split_skips_unlabeled_nodes(self, target_graph):
        # Taken from the per-node scan that the split replaced.
        labels = np.array(target_graph.labels)
        labels[::7] = -1
        split = make_few_shot_split(dataclasses.replace(target_graph, labels=labels),
                                    shots=3, seed=4)
        assert split.train_ids == (10, 23, 32, 57, 59, 78, 82, 85, 87)
        assert split.test_ids == tuple(i for i in range(90)
                                       if i % 7 and i not in split.train_ids)


class TestNodeClassification:
    def test_trained_beats_chance_strongly(self, trained_model, target_graph,
                                           label_prompts):
        result = evaluate_node_classification(
            trained_model.store, TOY_ENCODER, target_graph, label_prompts,
            TOY_SAMPLER, num_runs=5, base_seed=0)
        assert result.mean > 0.9
        assert len(result.runs) == 5

    def test_random_init_near_chance(self, target_graph, label_prompts):
        store = ParamStore.initialize(TOY_ENCODER, seed=12345)
        result = evaluate_node_classification(
            store, TOY_ENCODER, target_graph, label_prompts,
            TOY_SAMPLER, num_runs=5, base_seed=0)
        assert abs(result.mean - 1 / 3) <= 0.15

    def test_deterministic_per_seed(self, trained_model, target_graph,
                                    label_prompts):
        kwargs = dict(test_fraction=0.2, num_runs=2, base_seed=7)
        a = evaluate_node_classification(trained_model.store, TOY_ENCODER,
                                         target_graph, label_prompts,
                                         TOY_SAMPLER, **kwargs)
        b = evaluate_node_classification(trained_model.store, TOY_ENCODER,
                                         target_graph, label_prompts,
                                         TOY_SAMPLER, **kwargs)
        assert [r.value for r in a.runs] == [r.value for r in b.runs]

    def test_default_test_fraction_is_20pct(self, trained_model, target_graph,
                                            label_prompts):
        import inspect

        sig = inspect.signature(evaluate_node_classification)
        assert sig.parameters["test_fraction"].default == 0.2

    def test_missing_class_in_prompts_rejected(self, trained_model, target_graph,
                                               text_encoder):
        partial = build_label_prompts(CLASS_KEYWORDS[:2], ["", ""],
                                      "{class} {class_desc}", text_encoder)
        with pytest.raises(ValidationError):
            evaluate_node_classification(trained_model.store, TOY_ENCODER,
                                         target_graph, partial, TOY_SAMPLER,
                                         num_runs=1)


class TestLinkPrediction:
    def test_trained_model_auc_high(self, trained_model, target_graph):
        result = evaluate_link_prediction(
            trained_model.store, TOY_ENCODER, target_graph, TOY_SAMPLER,
            test_fraction=0.1, num_runs=2, base_seed=0)
        assert result.mean > 0.6

    def test_too_few_non_edges_rejected_at_once(self, text_encoder):
        store = ParamStore.initialize(TOY_ENCODER, seed=0)
        k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        k4 = attach_features(TextAttributedGraph.from_edges(4, k4_edges, ["node"] * 4),
                             text_encoder)
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="non-edges"):
            evaluate_link_prediction(store, TOY_ENCODER, k4, TOY_SAMPLER)
        # One non-edge and five edges: half of them needs two negatives.
        k4_minus_one = attach_features(
            TextAttributedGraph.from_edges(4, k4_edges[1:], ["node"] * 4), text_encoder)
        with pytest.raises(ValidationError, match="non-edges"):
            evaluate_link_prediction(store, TOY_ENCODER, k4_minus_one, TOY_SAMPLER)
        assert time.perf_counter() - start < 1.0
        result = evaluate_link_prediction(store, TOY_ENCODER, k4_minus_one, TOY_SAMPLER,
                                          test_fraction=0.2, num_runs=1)
        assert 0.0 <= result.mean <= 1.0

    def test_default_fraction_half(self):
        import inspect

        sig = inspect.signature(evaluate_link_prediction)
        assert sig.parameters["test_fraction"].default == 0.5


def reference_embedding(store, graph, node, sampler_cfg):
    """One subgraph at a time on the autodiff tape: the pre-batching path."""
    sub = with_positional_encodings(rwr_sample(graph, node, sampler_cfg),
                                    TOY_ENCODER.positional_dim)
    return encode_graph_tensor(store, TOY_ENCODER, sub)[0].data[0]


def reference_link_auc(store, graph, fraction, seed):
    """AUC of one evaluation run, removing each positive edge by copying the
    graph, with the sampling order of ``evaluate_link_prediction``."""
    rng = np.random.default_rng(seed)
    num_test = max(1, int(round(fraction * len(graph.edges))))
    chosen = rng.choice(len(graph.edges), size=num_test, replace=False)
    negatives = []
    while len(negatives) < num_test:
        u, v = int(rng.integers(graph.num_nodes)), int(rng.integers(graph.num_nodes))
        key = (min(u, v), max(u, v))
        if u != v and key not in set(graph.edges):
            negatives.append(key)
    run_cfg = _node_sampler_cfg(TOY_SAMPLER, seed)
    scores = []
    for i in chosen:
        u, v = graph.edges[int(i)]
        pruned = graph.without_edge(u, v)
        scores.append(link_score(reference_embedding(store, pruned, u, run_cfg),
                                 reference_embedding(store, pruned, v, run_cfg)))
    for u, v in negatives:
        scores.append(link_score(reference_embedding(store, graph, u, run_cfg),
                                 reference_embedding(store, graph, v, run_cfg)))
    return auc(scores, [True] * num_test + [False] * num_test)


class TestEvaluationArguments:
    @pytest.mark.parametrize("test_fraction, num_runs",
                             [(0.0, 1), (-0.5, 1), (1.5, 1), (float("nan"), 1), (0.5, 0)])
    def test_out_of_range_rejected(self, target_graph, label_prompts, test_fraction,
                                   num_runs):
        store = ParamStore.initialize(TOY_ENCODER, seed=0)
        with pytest.raises(ValidationError):
            evaluate_link_prediction(store, TOY_ENCODER, target_graph, TOY_SAMPLER,
                                     test_fraction=test_fraction, num_runs=num_runs)
        with pytest.raises(ValidationError):
            evaluate_node_classification(store, TOY_ENCODER, target_graph, label_prompts,
                                         TOY_SAMPLER, test_fraction=test_fraction,
                                         num_runs=num_runs)

    def test_whole_edge_set_allowed(self, target_graph):
        store = ParamStore.initialize(TOY_ENCODER, seed=0)
        result = evaluate_link_prediction(store, TOY_ENCODER, target_graph, TOY_SAMPLER,
                                          test_fraction=1.0, num_runs=1)
        assert 0.0 <= result.mean <= 1.0


class TestAgainstPerNodeReference:
    """Batched, tape-free evaluation returns exactly the figures of encoding
    one subgraph at a time on a copied graph."""

    def test_link_prediction(self, trained_model, target_graph):
        for store in (trained_model.store, ParamStore.initialize(TOY_ENCODER, seed=3)):
            result = evaluate_link_prediction(store, TOY_ENCODER, target_graph,
                                              TOY_SAMPLER, test_fraction=0.3,
                                              num_runs=2, base_seed=4)
            assert [r.value for r in result.runs] == [
                reference_link_auc(store, target_graph, 0.3, seed) for seed in (4, 5)]

    def test_node_classification(self, trained_model, target_graph, label_prompts):
        labeled = np.flatnonzero(target_graph.labels >= 0)
        mapping = prompt_index_map(target_graph, label_prompts)
        for store in (trained_model.store, ParamStore.initialize(TOY_ENCODER, seed=3)):
            result = evaluate_node_classification(store, TOY_ENCODER, target_graph,
                                                  label_prompts, TOY_SAMPLER,
                                                  test_fraction=0.5, num_runs=2,
                                                  base_seed=1)
            for run in result.runs:
                nodes = np.random.default_rng(run.seed).choice(
                    labeled, size=int(round(0.5 * labeled.size)), replace=False)
                run_cfg = _node_sampler_cfg(TOY_SAMPLER, run.seed)
                correct = sum(
                    zero_shot_classify(reference_embedding(store, target_graph, int(n),
                                                           run_cfg), label_prompts)[0]
                    == mapping[target_graph.labels[n]] for n in nodes)
                assert run.value == correct / len(nodes)


class TestPinnedPromptBits:
    """Two-shot prompt tuning of the toy model reproduces its prompt and loss
    bytes and its accuracies. Taken with numpy 2.4.6 on scipy-openblas
    0.3.31 (x86-64, Python 3.11); another numpy or BLAS build may round
    differently, here or in the toy pretraining run, and need its own."""

    def test_two_shots_five_epochs(self, trained_model, shifted_target_graph,
                                   label_prompts):
        split = make_few_shot_split(shifted_target_graph, shots=2, seed=0)
        result = prompt_tune(trained_model.store, TOY_ENCODER, shifted_target_graph, split,
                             label_prompts, epochs=5, lr=1e-2, sampler_cfg=TOY_SAMPLER)
        got = (hashlib.sha256(result.prompt.values.tobytes()).hexdigest(),
               hashlib.sha256(np.array(result.losses).tobytes()).hexdigest(),
               result.zero_shot_accuracy, result.tuned_accuracy)
        assert got == ("ac6cf10cbf6df8e04d8ecb5185f2de2f519bf1fa903fd646ece107d867009167",
                       "476881baa79c41ff74a447abc4d3925239c8e8978c61eb5393198ea43d3d4814",
                       0.8452380952380952, 0.9285714285714286), \
            f"pinned on numpy 2.4.6, running {np.__version__}"


class TestPromptTune:
    def test_towers_frozen_and_sigma_size(self, trained_model,
                                          shifted_target_graph, label_prompts,
                                          text_encoder):
        split = make_few_shot_split(shifted_target_graph, shots=5, seed=0)
        result = prompt_tune(trained_model.store, TOY_ENCODER,
                             shifted_target_graph, split, label_prompts,
                             epochs=10, sampler_cfg=TOY_SAMPLER,
                             text_encoder=text_encoder)
        assert result.towers_frozen
        assert result.prompt.values.shape == (TOY_ENCODER.text_dim,)

    def test_sigma_zero_matches_zero_shot_exactly(self, trained_model,
                                                  target_graph, label_prompts):
        # Epoch count 0 leaves sigma at its zero initialization.
        split = make_few_shot_split(target_graph, shots=5, seed=1)
        result = prompt_tune(trained_model.store, TOY_ENCODER, target_graph,
                             split, label_prompts, epochs=0,
                             sampler_cfg=TOY_SAMPLER)
        assert result.tuned_accuracy == result.zero_shot_accuracy
        np.testing.assert_array_equal(result.prompt.values,
                                      np.zeros(TOY_ENCODER.text_dim))

    def test_five_shot_never_reduces_mean_accuracy(self, trained_model,
                                                   shifted_target_graph,
                                                   label_prompts, text_encoder):
        zero_shot, tuned = [], []
        for seed in range(5):
            split = make_few_shot_split(shifted_target_graph, shots=5, seed=seed)
            result = prompt_tune(trained_model.store, TOY_ENCODER,
                                 shifted_target_graph, split, label_prompts,
                                 sampler_cfg=TOY_SAMPLER,
                                 text_encoder=text_encoder)
            zero_shot.append(result.zero_shot_accuracy)
            tuned.append(result.tuned_accuracy)
        assert np.mean(tuned) >= np.mean(zero_shot)

    def test_sigma_gradient_matches_finite_differences(self, trained_model,
                                                       target_graph,
                                                       label_prompts):
        # prompt_tune's step: sigma added to every feature row of one padded
        # batch, its gradient the feature gradient summed over rows.
        split = make_few_shot_split(target_graph, shots=2, seed=0)
        batch = sample_batch(TOY_ENCODER, target_graph, split.train_ids, TOY_SAMPLER)
        labels = np.array([int(target_graph.labels[n]) for n in split.train_ids])
        store = trained_model.store

        def loss_at(sigma_values):
            z, x = encode_batch(store, TOY_ENCODER, batch,
                                Tensor(batch.features + sigma_values, requires_grad=True))
            return supervised_contrastive_loss_tensor(
                z, labels, label_prompts.embeddings, 0.1), x

        base = np.zeros(TOY_ENCODER.text_dim)
        loss, x = loss_at(base)
        store.zero_grads()
        loss.backward()
        analytic = x.grad.sum(axis=(0, 1))

        numeric = central_difference(lambda: loss_at(base)[0].item(), base, 1e-5)
        assert relative_error(analytic, numeric) < 1e-4

    def test_towers_get_no_gradient(self, trained_model, target_graph, label_prompts):
        # A copy of the trained store with a sentinel in every gradient slot.
        store = ParamStore(trained_model.store.shapes, trained_model.store.data.copy())
        store.grad[...] = 7.0
        split = make_few_shot_split(target_graph, shots=2, seed=3)
        result = prompt_tune(store, TOY_ENCODER, target_graph, split, label_prompts,
                             epochs=3, lr=1e-2, sampler_cfg=TOY_SAMPLER)
        assert result.towers_frozen
        assert np.all(store.grad == 7.0)

        # The same steps on a tape through the store itself: the figures are
        # bit-identical, and there backward does fill the tower's slots.
        mapping = prompt_index_map(target_graph, label_prompts)
        train_labels = np.array([int(mapping[target_graph.labels[n]])
                                 for n in split.train_ids])
        sigma, sigma_grad = np.zeros(TOY_ENCODER.text_dim), np.zeros(TOY_ENCODER.text_dim)
        optimizer = AdamW(sigma, sigma_grad, OptimizerConfig(lr=1e-2, weight_decay=1e-5))
        losses = []
        for epoch in range(3):
            batch = sample_batch(TOY_ENCODER, target_graph, split.train_ids,
                                 _node_sampler_cfg(TOY_SAMPLER, split.seed * 1009 + epoch))
            z, x = encode_batch(store, TOY_ENCODER, batch,
                                Tensor(batch.features + sigma, requires_grad=True))
            loss = supervised_contrastive_loss_tensor(z, train_labels,
                                                      label_prompts.embeddings, 0.1)
            loss.backward()
            sigma_grad[...] = x.grad.sum(axis=(0, 1))
            optimizer.step()
            losses.append(loss.item())
        assert result.losses == losses
        assert result.prompt.values.tobytes() == sigma.tobytes()
        batch = sample_batch(TOY_ENCODER, target_graph, split.test_ids,
                             _node_sampler_cfg(TOY_SAMPLER, split.seed))
        predicted = [zero_shot_classify(row, label_prompts)[0]
                     for row in embed_batch(store, TOY_ENCODER, batch, sigma)]
        truth = [mapping[target_graph.labels[n]] for n in split.test_ids]
        assert result.tuned_accuracy == np.mean(np.equal(predicted, truth))
        assert np.any(store.grad != 7.0)

    def test_rejects_featureless_graph(self, trained_model, label_prompts):
        from tagsum.synthetic import make_synthetic_tag

        bare = make_synthetic_tag(30, seed=5)
        split_source = make_synthetic_tag(30, seed=5)
        with pytest.raises(ValidationError):
            split = make_few_shot_split(split_source, shots=2, seed=0)
            prompt_tune(trained_model.store, TOY_ENCODER, bare, split,
                        label_prompts, epochs=1)
