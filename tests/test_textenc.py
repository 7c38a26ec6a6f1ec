"""Text encoder contracts: determinism, pooling, closed tables."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsum.errors import ParseError, TagsumError, ValidationError
from tagsum.graphs import TextAttributedGraph
from tagsum.textenc import (
    Embedding,
    HashTextEncoder,
    TableTextEncoder,
    attach_features,
)

from reference import loop_encode, token_vector


class TestHashEncoder:
    def test_deterministic(self):
        a = HashTextEncoder(dim=8).encode_texts(["graph learning rocks"])[0]
        b = HashTextEncoder(dim=8).encode_texts(["graph learning rocks"])[0]
        np.testing.assert_array_equal(a, b)

    def test_repeated_token_equals_single(self):
        enc = HashTextEncoder(dim=8)
        np.testing.assert_allclose(enc.encode_texts(["a a"])[0],
                                   enc.encode_texts(["a"])[0], atol=1e-15)

    def test_output_unit_norm(self):
        row = HashTextEncoder(dim=16).encode_texts(["some words here"])[0]
        assert abs(np.linalg.norm(row) - 1.0) < 1e-12

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            HashTextEncoder(dim=8).encode_texts(["   "])

    def test_different_texts_differ(self):
        enc = HashTextEncoder(dim=32)
        a, b = enc.encode_texts(["databases", "robotics"])
        assert np.linalg.norm(a - b) > 0.1

    def test_checksum_stable(self):
        enc = HashTextEncoder(dim=8)
        before = enc.state_checksum()
        enc.encode_texts(["prime the cache with tokens"])
        assert enc.state_checksum() == before


class TestTableEncoder:
    def test_known_text(self):
        enc = TableTextEncoder.build(["hello", "world"],
                                     [[3.0, 4.0], [1.0, 0.0]])
        np.testing.assert_allclose(enc.encode_texts(["hello"])[0], [0.6, 0.8])

    def test_unknown_text_errors(self):
        enc = TableTextEncoder.build(["hello", "world"],
                                     [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            enc.encode_texts(["missing"])

    def test_file_round_trip(self, tmp_path):
        enc = TableTextEncoder.build(["alpha", "beta"],
                                     [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "table.jsonl"
        enc.save(path)
        loaded = TableTextEncoder.from_file(path)
        np.testing.assert_allclose(loaded.encode_texts(["alpha"])[0],
                                   enc.encode_texts(["alpha"])[0])
        assert loaded.state_checksum() == enc.state_checksum()

    def test_checksum_tracks_content(self):
        a = TableTextEncoder.build(["x"], [[1.0, 0.0]])
        b = TableTextEncoder.build(["x"], [[0.0, 1.0]])
        assert a.state_checksum() != b.state_checksum()

    @pytest.mark.parametrize("texts, vectors, message", [
        (["a", "b"], [[1.0, 0.0], [1.0, 0.0, 0.0]], "entry 1: vector dim 3 != 2"),
        (["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0]], "entry 2: 3 texts but 2 vectors"),
        (["a"], [[1.0, 0.0], [0.0, 1.0]], "entry 1: 1 texts but 2 vectors"),
        (["a", "b"], [[1.0, 0.0], [[1.0]]], "entry 1: vector should be"),
        (["a"], [[[1.0]]], "entry 0: vector should be"),
        (["a"], [[]], "entry 0: vector should be"),
        (["a", "b"], [[1.0], [float("nan")]], "entry 1: vector should be"),
        (["a", "b"], [[1.0], [float("inf")]], "entry 1: vector should be"),
        (["a"], [["x"]], "entry 0: vector should be"),
        (["a"], [[10**400]], "entry 0: vector should be"),
        (["a", "b"], [[1.0, 2.0], [[1.0], [2.0, 3.0]]], "entry 1: vector should be"),
        ([], [], "no entries"),
    ])
    def test_build_rejects_first_bad_entry(self, texts, vectors, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            TableTextEncoder.build(texts, vectors)

    def test_build_copies_rows(self):
        vectors = np.eye(2)
        enc = TableTextEncoder.build(["a", "b"], vectors)
        vectors[0, 0] = 5.0
        assert enc.encode_texts(["a"])[0].tolist() == [1.0, 0.0]
        assert TableTextEncoder.build(["a"], [[2.0]]).dim == 1


GOOD_RECORD = b'{"sha256": "ab", "vector": [1.0, 2.0]}\n'


class TestTableFile:
    @pytest.mark.parametrize("line", [
        b"not json",
        b"[1,2]",
        b'{"sha256": "ab"}',
        b'{"vector": [1.0, 2.0]}',
        b'{"sha256": 5, "vector": [1.0, 2.0]}',
        b'{"sha256": "cd", "vector": []}',
        b'{"sha256": "cd", "vector": [[1.0, 2.0]]}',
        b'{"sha256": "cd", "vector": ["a", "b"]}',
        b'{"sha256": "cd", "vector": [true, 1.0]}',
        b'{"sha256": "cd", "vector": [NaN, 1.0]}',
        b'{"sha256": "cd", "vector": [1e999, 1.0]}',
        b'{"sha256": "cd", "vector": [1' + b"0" * 400 + b', 1.0]}',
        b'{"sha256": "cd", "vector": [1.0, 2.0, 3.0]}',
        b"[" * 100_000,
    ], ids=["not-json", "list", "no-vector", "no-sha256", "sha256-int", "empty-vector",
            "nested-vector", "string-entries", "bool-entry", "nan-entry", "inf-entry",
            "huge-int-entry", "dim-mismatch", "deep-nesting"])
    def test_bad_line_is_parse_error_naming_it(self, tmp_path, line):
        path = tmp_path / "table.jsonl"
        path.write_bytes(GOOD_RECORD + b"\n" + line + b"\n")
        with pytest.raises(ParseError) as err:
            TableTextEncoder.from_file(path)
        assert err.value.line == 3

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_bytes(GOOD_RECORD + b'{"sha256": "caf\xe9", "vector": [1.0, 2.0]}\n')
        with pytest.raises(ParseError, match="UTF-8"):
            TableTextEncoder.from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "table.jsonl"
        path.write_bytes(b"\n\n")
        with pytest.raises(ValidationError):
            TableTextEncoder.from_file(path)


class TestTableFileProperty:
    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=96) | st.text(
        alphabet='{}[]":,0123.e-ab sha256vector\n\xe9', max_size=64)
        .map(lambda text: text.encode("utf-8")))
    def test_any_bytes_load_or_raise_tagsum_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_bytes(body)
        try:
            TableTextEncoder.from_file(path)
        except TagsumError:
            pass


# Tokens that repeat, differ only in case, or are not ASCII; a lone surrogate
# cannot be hashed, and separators of several kinds.
TOKENS = st.sampled_from(["graph", "Graph", "node", "a", "\u00e9t\u00e9", "\u65e5\u672c",
                          "\U0001f600", "x\u0301", "\ud800"]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
    min_size=1, max_size=3)
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\xa0", "\u3000",
                              "\u2028", " \x85 "])
TEXTS = st.lists(st.builds("".join, st.lists(TOKENS | SEPARATORS, max_size=8)), max_size=6)


def rows_or_error(call):
    """The call's rows as bytes, or the class and message of what it raised."""
    try:
        return call().tobytes()
    except (ValidationError, UnicodeEncodeError) as exc:
        return type(exc), str(exc)


def loop_rows(texts, dim):
    return np.array([loop_encode(text, dim) for text in texts]).reshape(-1, dim)


class TestBatchEncodingAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(texts=TEXTS, warm=TEXTS, dim=st.integers(1, 9))
    def test_rows_bit_identical_or_same_first_error(self, texts, warm, dim):
        enc = HashTextEncoder(dim)
        # A warm cache, or an error in an earlier call, changes no row.
        rows_or_error(lambda: enc.encode_texts(warm))
        got = rows_or_error(lambda: enc.encode_texts(texts))
        assert got == rows_or_error(lambda: loop_rows(texts, dim))
        good = list(itertools.takewhile(
            lambda text: isinstance(rows_or_error(lambda: loop_encode(text, dim)), bytes), texts))
        assert enc.encode_texts(good).tobytes() == loop_rows(good, dim).tobytes()
        for text in good:
            assert enc.encode_texts([text])[0].tobytes() == loop_encode(text, dim).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(texts=TEXTS, dim=st.integers(1, 9))
    def test_token_vectors_are_their_own_generators(self, texts, dim):
        enc = HashTextEncoder(dim)
        for text in texts:
            rows_or_error(lambda: enc.encode_texts([text]))
        assert enc._seeded == len(enc._token_ids)
        for token, row in enc._token_ids.items():
            assert enc._vectors[row].tobytes() == token_vector(token, dim).tobytes()

    def test_first_bad_text_raises(self):
        enc = HashTextEncoder(4)
        with pytest.raises(UnicodeEncodeError):
            enc.encode_texts(["fine", "bad \ud800", "   "])
        with pytest.raises(ValidationError, match="empty"):
            enc.encode_texts(["fine", "", "bad \ud800"])
        assert enc.encode_texts([]).shape == (0, 4)

    def test_table_rows_match_per_text_normalization(self):
        vectors = [[3.0, 4.0], [1.0, 1e-3], [-2.0, 0.5]]
        enc = TableTextEncoder.build(["a", "b", "c"], vectors)
        rows = enc.encode_texts(["c", "a", "c", "b"])
        for row, i in zip(rows, [2, 0, 2, 1]):
            vec = np.array(vectors[i])
            assert row.tobytes() == (vec / np.linalg.norm(vec)).tobytes()
        with pytest.raises(ValidationError, match="not present"):
            enc.encode_texts(["a", "missing", "b"])
        assert enc.encode_texts([]).shape == (0, 2)


class TestEmbeddingType:
    def test_normalized_flag_enforced(self):
        with pytest.raises(ValidationError):
            Embedding(vector=np.array([1.0, 1.0]), normalized=True)

    def test_unnormalized_allowed(self):
        emb = Embedding(vector=np.array([1.0, 1.0]), normalized=False)
        assert emb.dim == 2


class TestAttachFeatures:
    def test_features_match_encoder(self):
        graph = TextAttributedGraph.from_edges(
            2, [(0, 1)], ["first text", "second text"])
        enc = HashTextEncoder(dim=8)
        out = attach_features(graph, enc)
        np.testing.assert_array_equal(out.features[0],
                                      enc.encode_texts(["first text"])[0])
        assert out.features.shape == (2, 8)
