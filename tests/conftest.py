import time

import numpy as np
import pytest

from tagsum.encoder import GraphEncoderConfig, subgraph_batch
from tagsum.graphs import SamplerConfig, TextAttributedGraph, rwr_batch
from tagsum.pretrain import OptimizerConfig, PerturbationState, pretrain
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_pairs,
    make_synthetic_tag,
)
from tagsum.textenc import HashTextEncoder, attach_features
from tagsum.adapt import build_label_prompts

TOY_ENCODER = GraphEncoderConfig(layers=2, hidden=32, heads=4,
                                 positional_dim=8, text_dim=24)
TOY_SAMPLER = SamplerConfig(node_budget=8, max_steps=64)


def sample_batch(config, graph, nodes, sampler_cfg, excluded=None):
    """The nodes' subgraphs walked on ``sampler_cfg.rng_seed``, as one padded
    batch: the walk-then-build step every caller of the walker takes."""
    node_sets = rwr_batch(graph, nodes, [sampler_cfg.rng_seed] * len(nodes), sampler_cfg,
                          excluded)
    return subgraph_batch(config, graph, node_sets, excluded)


@pytest.fixture(scope="session")
def text_encoder():
    return HashTextEncoder(dim=24)


@pytest.fixture(scope="session")
def source_graph(text_encoder):
    return attach_features(
        make_synthetic_tag(200, seed=0, graph_id="src"), text_encoder)


@pytest.fixture(scope="session")
def target_graph(text_encoder):
    return attach_features(
        make_synthetic_tag(90, seed=99, graph_id="tgt"), text_encoder)


@pytest.fixture(scope="session")
def shifted_target_graph(text_encoder):
    return attach_features(
        make_synthetic_tag(90, seed=99,
                           domain_tokens=("archive",) * 5 + ("legacy",) * 3,
                           graph_id="tgtshift"),
        text_encoder)


@pytest.fixture(scope="session")
def label_prompts(text_encoder):
    return build_label_prompts(CLASS_KEYWORDS, CLASS_DESCRIPTIONS,
                               LABEL_TEMPLATE, text_encoder)


@pytest.fixture(scope="session")
def toy_training(source_graph, text_encoder):
    """The toy pretraining run shared by adaptation and acceptance tests:
    (pairs, result, training wall seconds).

    200 class-correlated pairs, 40 epochs, adversarial inner loop at the
    published epsilon and step count.
    """
    pairs = make_synthetic_pairs(source_graph, range(source_graph.num_nodes))
    start = time.monotonic()
    result = pretrain(
        pairs, {"src": source_graph}, text_encoder, TOY_ENCODER,
        OptimizerConfig(lr=5e-3, weight_decay=1e-5),
        PerturbationState(epsilon=1e-2, inner_steps=3),
        epochs=40, batch_size=16, seed=0, sampler_cfg=TOY_SAMPLER,
    )
    return pairs, result, time.monotonic() - start


@pytest.fixture(scope="session")
def trained_model(toy_training):
    """The toy pretrained checkpoint."""
    return toy_training[1]


@pytest.fixture
def tiny_graph():
    """Path graph 0-1-2-3 with plain texts."""
    return TextAttributedGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3)],
        ["alpha text", "beta text", "gamma text", "delta text"],
        features=np.arange(8, dtype=np.float64).reshape(4, 2),
    )
