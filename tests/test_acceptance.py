"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Every tolerance is pinned here; nothing defers to later calibration.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

import tagsum.autodiff as ad
from tagsum.adapt import (
    auc,
    evaluate_node_classification,
    make_few_shot_split,
    prompt_tune,
)
from tagsum.encoder import (
    GraphEncoderConfig,
    ParamStore,
    preset_total_parameter_count,
)
from tagsum.gradcheck import run_grad_check
from tagsum.graphml import ACADEMIC_SCHEMA, emit_graphml, parse_graphml
from tagsum.graphs import (
    EgoSubgraph,
    SamplerConfig,
    TextAttributedGraph,
    with_positional_encodings,
)
from tagsum.losses import alignment_uniformity, contrastive_loss
from tagsum.pretrain import OptimizerConfig, PerturbationState, pretrain
from tagsum.prompts import DOMAINS, render_summary_prompt
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_tag,
)
from tagsum.textenc import attach_features
from tagsum.theory import verify_proposition, verify_theorem_bound
from tagsum.adapt import build_label_prompts

from reference import rwr_walk

GOLDEN_ACADEMIC = Path(__file__).parent / "golden" / "academic_two_node.graphml"


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# --------------------------------------------------------------------------
# shared toy training run (criteria 4, 6, 7) with its wall-clock cost
# --------------------------------------------------------------------------

TOY_CFG = GraphEncoderConfig(layers=2, hidden=32, heads=4,
                             positional_dim=8, text_dim=24)
TOY_SAMPLER = SamplerConfig(node_budget=8, max_steps=64)


@pytest.fixture(scope="module")
def toy_run(text_encoder, source_graph, toy_training):
    # The session-wide toy run from conftest: the same 200-node source,
    # pairs, config and seed, trained once per test session.
    pairs, result, elapsed = toy_training
    return text_encoder, source_graph, pairs, result, elapsed


class TestCriterion1GradientSuite:
    def test_gradients_match_finite_differences(self):
        start = time.monotonic()
        result = run_grad_check(trials=2, seed=0, step=1e-5, tolerance=1e-4)
        elapsed = time.monotonic() - start
        assert result.passed, result.to_text()
        assert elapsed < 120.0
        report(1, f"all gradients within 1e-4 of central differences "
                  f"(worst {result.worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2PropositionReproduction:
    def test_alignment_and_risk_gap(self):
        start = time.monotonic()
        rep = verify_proposition(0.04, n_samples=1_000_000, seed=0)
        elapsed = time.monotonic() - start
        assert abs(rep.alignment.value - 0.02) <= 0.001
        assert abs(rep.risk_gap - 0.25) <= 0.005
        assert rep.alignment.value < 0.04
        assert rep.passed
        assert elapsed < 60.0
        report(2, f"alignment {rep.alignment.value:.5f} (target 0.02 +/- 0.001), "
                  f"risk gap {rep.risk_gap:.5f} (target 0.25 +/- 0.005), "
                  f"{elapsed:.1f}s")


class TestCriterion3TheoremBound:
    def test_25_point_grid_no_violations(self):
        start = time.monotonic()
        rep = verify_theorem_bound(
            rep_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
            classifier_grid=[(1.0, 0.0), (0.5, 0.0), (2.0, 0.0),
                             (1.0, 0.2), (1.0, -0.2)],
            scales=[-2.0, -1.0, 0.0, 1.0, 2.0],
            n_samples=100_000, seed=0, truncation_radius=6.0,
        )
        elapsed = time.monotonic() - start
        assert len(rep.points) == 25
        assert rep.violations == 0, rep.to_text()
        assert elapsed < 300.0
        report(3, f"0 bound violations on 25 grid points x 5 domains "
                  f"(constant {rep.constant:.3f}, {elapsed:.1f}s)")


class TestCriterion4PerturbationContract:
    def test_norms_bounded_across_full_run(self, toy_run):
        _, _, _, result, _ = toy_run
        worst = max(float(d.max()) for d in result.delta_norm_trace if d.size)
        assert worst <= 1e-2 + 1e-12
        report(4, f"per-subgraph delta norms <= 1e-2 + 1e-12 across "
                  f"{len(result.delta_norm_trace)} steps (worst {worst:.8f})")

    def test_epsilon_zero_bit_identical(self, toy_run, tmp_path):
        encoder, source, pairs, _, _ = toy_run
        kwargs = dict(epochs=3, batch_size=8, seed=11, sampler_cfg=TOY_SAMPLER,
                      optimizer_config=OptimizerConfig(lr=1e-3, weight_decay=1e-5))
        run_eps0 = pretrain(pairs[:40], {"src": source}, encoder, TOY_CFG,
                            perturbation=PerturbationState(epsilon=0.0,
                                                           inner_steps=3),
                            out_dir=tmp_path / "eps0", **kwargs)
        run_off = pretrain(pairs[:40], {"src": source}, encoder, TOY_CFG,
                           perturbation=None, out_dir=tmp_path / "off", **kwargs)
        eps0_bytes = (tmp_path / "eps0" / "checkpoint.bin").read_bytes()
        off_bytes = (tmp_path / "off" / "checkpoint.bin").read_bytes()
        assert eps0_bytes == off_bytes
        assert run_eps0.metrics == run_off.metrics
        report(4, "epsilon=0 run bit-identical to the no-adversary run "
                  "(checkpoint bytes and metrics)")


class TestCriterion5LossIdentities:
    def test_identities(self):
        value, _, _ = contrastive_loss(np.array([[1.0, 0.0]]),
                                       np.array([[1.0, 0.0]]), 0.1)
        assert value == 0.0

        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 6))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        u = rng.normal(size=(8, 6))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        d2 = ((h[:, None, :] - u[None, :, :]) ** 2).sum(-1)
        assert np.max(np.abs(d2 - (2 - 2 * h @ u.T))) <= 1e-12

        alignment, _ = alignment_uniformity(h, h.copy())
        assert alignment == 0.0

        worse = 0
        for trial in range(100):
            batch = int(rng.integers(2, 7))
            a = rng.normal(size=(batch, 5))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = a + 0.05 * rng.normal(size=a.shape)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            matched, _, _ = contrastive_loss(a, b, 0.2)
            perm = rng.permutation(batch)
            while np.all(perm == np.arange(batch)):
                perm = rng.permutation(batch)
            shuffled, _, _ = contrastive_loss(a, b[perm], 0.2)
            worse += int(shuffled > matched)
        assert worse == 100
        report(5, "B=1 loss 0; distance/cosine within 1e-12; alignment(H=U)=0; "
                  "100/100 wrong permutations increase the loss")


class TestCriterion6SyntheticTransfer:
    def test_zero_shot_transfer(self, toy_run):
        encoder, _, _, result, train_time = toy_run
        labels = build_label_prompts(CLASS_KEYWORDS, CLASS_DESCRIPTIONS,
                                     LABEL_TEMPLATE, encoder)
        target = attach_features(make_synthetic_tag(90, seed=99, graph_id="tgt"),
                                 encoder)
        start = time.monotonic()
        trained = evaluate_node_classification(
            result.store, TOY_CFG, target, labels, TOY_SAMPLER,
            num_runs=5, base_seed=0)
        baseline = evaluate_node_classification(
            ParamStore.initialize(TOY_CFG, seed=12345), TOY_CFG, target, labels,
            TOY_SAMPLER, num_runs=5, base_seed=0)
        elapsed = train_time + (time.monotonic() - start)
        assert trained.mean > 0.90, trained.runs
        assert abs(baseline.mean - 1 / 3) <= 0.15, baseline.runs
        assert elapsed < 600.0
        report(6, f"zero-shot accuracy {trained.mean:.4f} > 0.90; random-init "
                  f"{baseline.mean:.4f} within 1/3 +/- 0.15; "
                  f"{elapsed:.1f}s total")


class TestCriterion7PromptTuning:
    def test_sigma_zero_exact_and_tuning_not_harmful(self, toy_run):
        encoder, _, _, result, _ = toy_run
        labels = build_label_prompts(CLASS_KEYWORDS, CLASS_DESCRIPTIONS,
                                     LABEL_TEMPLATE, encoder)
        shifted = attach_features(
            make_synthetic_tag(90, seed=99,
                               domain_tokens=("archive",) * 5 + ("legacy",) * 3,
                               graph_id="tgtshift"), encoder)

        frozen_split = make_few_shot_split(shifted, shots=5, seed=0)
        untouched = prompt_tune(result.store, TOY_CFG, shifted, frozen_split,
                                labels, epochs=0, sampler_cfg=TOY_SAMPLER,
                                text_encoder=encoder)
        assert untouched.tuned_accuracy == untouched.zero_shot_accuracy
        assert np.all(untouched.prompt.values == 0.0)

        zero_shot, tuned = [], []
        for seed in range(5):
            split = make_few_shot_split(shifted, shots=5, seed=seed)
            run = prompt_tune(result.store, TOY_CFG, shifted, split, labels,
                              epochs=100, lr=1e-4, weight_decay=1e-5,
                              sampler_cfg=TOY_SAMPLER, text_encoder=encoder)
            assert run.towers_frozen
            zero_shot.append(run.zero_shot_accuracy)
            tuned.append(run.tuned_accuracy)
        assert float(np.mean(tuned)) >= float(np.mean(zero_shot))
        report(7, f"sigma=0 evaluation equals zero-shot exactly; 5-shot tuning "
                  f"mean {np.mean(tuned):.4f} >= zero-shot mean "
                  f"{np.mean(zero_shot):.4f} over 5 seeds; towers frozen")


def brute_force_auc(scores, truth):
    pos = scores[truth]
    neg = scores[~truth]
    greater = (pos[:, None] > neg[None, :]).sum()
    equal = (pos[:, None] == neg[None, :]).sum()
    return (greater + 0.5 * equal) / (len(pos) * len(neg))


class TestCriterion8Oracles:
    def test_auc_exact_on_1000_instances(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 201))
            scores = rng.integers(0, 10, size=n) / 9.0
            truth = rng.random(n) < 0.5
            if truth.all() or not truth.any():
                continue
            assert auc(scores, truth) == brute_force_auc(scores, truth)
            checked += 1
        report(8, "rank-based AUC equals brute-force pair counting on 1000 "
                  "random instances (exact)")

    def test_rwr_frequencies_chi_square(self):
        # Final positions of independent 25-step walks are stationary to
        # ~1e-8 total variation; chi-square against the linear-system solve.
        cases = [
            TextAttributedGraph.from_edges(3, [(0, 1), (1, 2)], [""] * 3),
            TextAttributedGraph.from_edges(
                5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [""] * 5),
            TextAttributedGraph.from_edges(
                6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                [""] * 6),
        ]
        walks = 100_000
        for index, graph in enumerate(cases):
            n = graph.num_nodes
            a = np.zeros((n, n))
            for u, v in graph.edges:
                a[u, v] = a[v, u] = 1.0
            deg = a.sum(axis=0)
            w = a / np.where(deg > 0, deg, 1.0)[None, :]
            rhs = np.zeros(n)
            rhs[1] = 0.5
            expected = np.linalg.solve(np.eye(n) - 0.5 * w, rhs)

            rng = np.random.Generator(np.random.PCG64(100 + index))
            counts = np.zeros(n)
            for _ in range(walks):
                counts[rwr_walk(graph, 1, 0.5, 25, rng)[-1]] += 1
            _, p_value = chisquare(counts, expected * walks)
            assert p_value > 0.01, (index, counts / walks, expected, p_value)
        report(8, "RWR visit frequencies match the linear-system solution "
                  "(chi-square p > 0.01 on 3 graphs <= 6 nodes)")

    def test_rwpe_two_node_alternation(self):
        sub = EgoSubgraph(0, (0, 1), np.zeros((2, 0)), ((0, 1),))
        values = with_positional_encodings(sub, 8).positional
        expected = np.tile([0.0, 1.0], 4)
        np.testing.assert_array_equal(values[0], expected)
        np.testing.assert_array_equal(values[1], expected)
        report(8, "two-node RWPE equals the exact [0,1,0,1,...] pattern")


class TestCriterion9CorpusRoundTrip:
    def test_emit_parse_identity_1000(self):
        rng = np.random.default_rng(1)
        texts = ["t", "with <tag>", "amp & x", 'q "quoted"', "", "line\nbreak"]
        for trial in range(1000):
            n = int(rng.integers(1, 8))
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.4)
            sub = EgoSubgraph(0, tuple(range(n)), np.zeros((n, 0)), edges)
            payload = {
                "title": [texts[int(rng.integers(len(texts)))] for _ in range(n)],
                "abstract": [texts[int(rng.integers(len(texts)))] for _ in range(n)],
            }
            parsed = parse_graphml(emit_graphml(sub, ACADEMIC_SCHEMA, payload))
            assert parsed.num_nodes == n
            assert parsed.edges == sub.edges
            assert list(parsed.node_attrs["title"]) == payload["title"]
            assert list(parsed.node_attrs["abstract"]) == payload["abstract"]
        report(9, "emit/parse identity on 1000 random subgraphs")

    def test_golden_file_byte_for_byte(self):
        sub = EgoSubgraph(0, (0, 1), np.zeros((2, 0)), ((0, 1),))
        doc = emit_graphml(sub, ACADEMIC_SCHEMA, {
            "title": [
                "Attention Is All You Need",
                "Neural Machine Translation by Jointly Learning to Align and Translate",
            ],
            "abstract": [
                "We propose a new network architecture based solely on attention mechanisms.",
                "We conjecture that a fixed-length vector is a bottleneck and propose soft alignment.",
            ],
        })
        assert doc == GOLDEN_ACADEMIC.read_text(encoding="utf-8")
        report(9, "golden template instance matched byte-for-byte")

    def test_prompt_assets_render_clean(self):
        doc = '<?xml version="1.0" encoding="UTF-8"?>\n<graphml></graphml>\n'
        for domain in DOMAINS:
            prompt = render_summary_prompt(doc, domain, 4)
            assert "{seed}" not in prompt
            assert "{GraphML}" not in prompt
        report(9, "all summary prompt assets render with zero residual "
                  "placeholders")


class TestCriterion10ScalePresets:
    def test_base_preset_parameter_count(self):
        total = preset_total_parameter_count("base")
        deviation = abs(total - 150e6) / 150e6
        assert deviation < 0.05
        report(10, f"base preset {total / 1e6:.1f}M parameters, "
                   f"{100 * deviation:.2f}% from the published 150M "
                   f"(counted from tensor shapes only)")
