"""The synthetic graph generator against its one-draw-at-a-time reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsum.errors import ValidationError
from tagsum.synthetic import _word_picks, make_synthetic_tag

from reference import loop_synthetic_tag

# numpy's PCG64 steps its 128-bit state as state * multiplier + increment.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
MASK_128 = (1 << 128) - 1


def assert_same_graph(got, want):
    assert got.raw_text == want.raw_text
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tolist() == want.labels.tolist()
    assert got.edges == want.edges
    assert got.class_names == want.class_names
    assert got.graph_id == want.graph_id


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestAgainstLoops:
    @settings(max_examples=80, deadline=None)
    @given(num_nodes=st.integers(0, 300), num_classes=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), intra=probabilities, inter=probabilities,
           domain_tokens=st.lists(st.text("abcxyz", min_size=1, max_size=6),
                                  max_size=3).map(tuple),
           graph_id=st.sampled_from(["synthetic", "src", "tgt"]))
    def test_equals_the_loops(self, num_nodes, num_classes, seed, intra, inter,
                              domain_tokens, graph_id):
        kwargs = dict(seed=seed, intra_edge_prob=intra, inter_edge_prob=inter,
                      domain_tokens=domain_tokens, graph_id=graph_id)
        assert_same_graph(make_synthetic_tag(num_nodes, num_classes, **kwargs),
                          loop_synthetic_tag(num_nodes, num_classes, **kwargs))

    @pytest.mark.parametrize("seed", [1, 2024])
    def test_sparse_bench_graph_spans_many_blocks(self, seed):
        kwargs = dict(seed=seed, intra_edge_prob=0.022, inter_edge_prob=0.0005)
        assert_same_graph(make_synthetic_tag(1600, **kwargs), loop_synthetic_tag(1600, **kwargs))

    def test_defaults(self):
        assert_same_graph(make_synthetic_tag(), loop_synthetic_tag())


def generator_before(raw_word: int, steps_back: int) -> np.random.Generator:
    """A generator whose raw word ``steps_back`` draws ahead is ``raw_word``:
    the stepped state has high word 0, so the output is its low word."""
    bit_generator = np.random.PCG64(0)
    increment = bit_generator.state["state"]["inc"]
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    state = raw_word
    for _ in range(steps_back + 1):
        state = ((state - increment) * inverse) & MASK_128
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": increment},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


class TestRejectedDraw:
    def test_constructed_state_yields_the_word(self):
        rng = generator_before(12345, steps_back=2)
        assert rng.bit_generator.random_raw(3)[2] == 12345

    # Word k's high half is 32-bit draw 2k + 1: node (2k + 1) // 3's 5-way
    # pick when 2k + 1 is 1 mod 3 (k = 0, 3), else a 4-way or 2-way draw.
    @pytest.mark.parametrize("steps_back", [0, 1, 2, 3])
    @pytest.mark.parametrize("low_word", [0, 7, 2**32 - 1])
    @pytest.mark.parametrize("num_nodes", [1, 2, 5, 6])
    def test_bulk_picks_equal_choice(self, steps_back, low_word, num_nodes):
        bulk, loop = (generator_before(low_word, steps_back) for _ in range(2))
        first, second = _word_picks(bulk.bit_generator, num_nodes)
        want = [loop.choice(5, size=2, replace=False).tolist() for _ in range(num_nodes)]
        assert np.stack([first, second], axis=1).tolist() == want
        # The stream continues where the per-node calls leave it.
        assert bulk.random(4).tolist() == loop.random(4).tolist()


BAD_ARGUMENTS = [
    ({"num_classes": 0}, "num_classes"),
    ({"num_classes": 4}, "num_classes"),
    ({"num_classes": 2.0}, "num_classes"),
    ({"num_nodes": -3}, "num_nodes"),
    ({"num_nodes": 2.5}, "num_nodes"),
    ({"num_nodes": True}, "num_nodes"),
    ({"intra_edge_prob": 1.5}, "intra_edge_prob"),
    ({"intra_edge_prob": math.nan}, "intra_edge_prob"),
    ({"intra_edge_prob": -0.1}, "intra_edge_prob"),
    ({"inter_edge_prob": math.inf}, "inter_edge_prob"),
    ({"inter_edge_prob": math.nan}, "inter_edge_prob"),
    ({"inter_edge_prob": "0.1"}, "inter_edge_prob"),
]


class TestArguments:
    @pytest.mark.parametrize("kwargs, name", BAD_ARGUMENTS)
    def test_bad_argument_is_validation_error(self, kwargs, name):
        with pytest.raises(ValidationError, match=name) as caught:
            make_synthetic_tag(**kwargs)
        assert isinstance(caught.value, ValueError)

    def test_numpy_scalars_and_bounds_accepted(self):
        graph = make_synthetic_tag(np.int64(5), np.int64(3), intra_edge_prob=np.float64(1.0),
                                   inter_edge_prob=0)
        assert graph.num_nodes == 5
        assert make_synthetic_tag(0, 1).num_nodes == 0
