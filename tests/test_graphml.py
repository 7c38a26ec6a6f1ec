"""GraphML dialect: emission, parsing, round trips, golden conformance."""

from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagsum import graphml
from tagsum.errors import ParseError, TagsumError, ValidationError
from tagsum.graphml import (
    ACADEMIC_SCHEMA,
    ECOMMERCE_SCHEMA,
    SOCIAL_SCHEMA,
    GraphMLSchema,
    emit_graphml,
    parse_graphml,
)
from tagsum.graphs import EgoSubgraph

GOLDEN = Path(__file__).parent / "golden" / "academic_two_node.graphml"


def subgraph(n, edges):
    return EgoSubgraph(0, tuple(range(n)), np.zeros((n, 0)), tuple(edges))


class TestEmit:
    def test_single_node_no_edges(self):
        doc = emit_graphml(subgraph(1, []), ACADEMIC_SCHEMA,
                           {"title": ["only"], "abstract": ["lonely"]})
        assert doc.count("<node") == 1
        assert "<edge" not in doc

    def test_golden_byte_for_byte(self):
        sub = subgraph(2, [(0, 1)])
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
        assert doc == GOLDEN.read_text(encoding="utf-8")

    def test_xml_escaping(self):
        doc = emit_graphml(subgraph(1, []), ACADEMIC_SCHEMA,
                           {"title": ["a < b & c"], "abstract": [""]})
        assert "a &lt; b &amp; c" in doc
        assert "a < b" not in doc

    def test_missing_attribute_names_node_and_key(self):
        with pytest.raises(ValidationError) as err:
            emit_graphml(subgraph(2, []), ACADEMIC_SCHEMA,
                         {"title": ["x", "y"], "abstract": ["z", None]})
        assert "n1" in str(err.value) and "d1" in str(err.value)

    def test_relation_word_per_domain(self):
        sub = subgraph(2, [(0, 1)])
        assert ">cited<" in emit_graphml(sub, ACADEMIC_SCHEMA,
                                         {"title": ["a", "b"], "abstract": ["", ""]})
        assert ">co-purchased<" in emit_graphml(
            sub, ECOMMERCE_SCHEMA, {"title": ["a", "b"], "description": ["", ""]})
        assert ">liked<" in emit_graphml(sub, SOCIAL_SCHEMA, {"content": ["a", "b"]})


class TestParse:
    def test_golden_recovers_content(self):
        parsed = parse_graphml(GOLDEN.read_text(encoding="utf-8"))
        assert parsed.num_nodes == 2
        assert parsed.edges == ((0, 1),)
        assert parsed.node_attrs["title"][0] == "Attention Is All You Need"
        assert parsed.relation_words == ("cited",)

    def test_edge_to_undeclared_node(self):
        doc = GOLDEN.read_text(encoding="utf-8").replace('target="n1"', 'target="n5"')
        with pytest.raises(ParseError) as err:
            parse_graphml(doc)
        assert "n5" in str(err.value)

    def test_unknown_key_id(self):
        doc = GOLDEN.read_text(encoding="utf-8").replace('key="d0"', 'key="d9"')
        with pytest.raises(ParseError):
            parse_graphml(doc)

    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            parse_graphml("<graphml><graph>")

    def test_skeleton_subgraph(self):
        parsed = parse_graphml(GOLDEN.read_text(encoding="utf-8"))
        sub = parsed.to_subgraph()
        assert sub.num_nodes == 2
        assert sub.edges == ((0, 1),)


def _element(children):
    """XML elements over the dialect's tag and attribute names."""
    return st.builds(
        lambda tag, attrs, text, kids: "<{0}{1}>{2}{3}</{0}>".format(
            tag, "".join(f" {k}={quoteattr(v)}" for k, v in attrs.items()),
            escape(text), "".join(kids)),
        st.sampled_from(["graphml", "graph", "node", "edge", "key", "data", "x"]),
        st.dictionaries(st.sampled_from(["id", "for", "attr.name", "source", "target", "key"]),
                        st.sampled_from(["n0", "n1", "d0", "d2", "node", "edge", "title", ""]),
                        max_size=3),
        st.text(max_size=5), st.lists(children, max_size=3))


XML_DOCUMENTS = st.recursive(st.just(""), _element, max_leaves=12)


class TestParseAnyText:
    @settings(max_examples=300, deadline=None)
    @given(st.text() | XML_DOCUMENTS | XML_DOCUMENTS.map("<graphml>{}</graphml>".format))
    @example("\ud800")
    @example("<graphml>\udfff</graphml>")
    def test_succeeds_or_raises_tagsum_error(self, doc):
        try:
            parse_graphml(doc)
        except TagsumError:
            pass


# Any character, surrogates included, mixed with the escaped characters,
# quotes and entity-like runs.
ESCAPE_TEXT = st.lists(
    st.characters() | st.sampled_from(["&", "<", ">", '"', "'", "&amp;", "&lt;", "&#38;", ";"]),
    max_size=40,
).map("".join)


class TestEscape:
    @settings(max_examples=500, deadline=None)
    @given(ESCAPE_TEXT)
    @example("\ud800&amp;<\udfff>")
    @example("&&amp;amp;'\"")
    def test_matches_saxutils(self, text):
        from xml.sax import saxutils

        assert graphml.escape(text) == saxutils.escape(text)


class TestRoundTrip:
    def test_thousand_random_subgraphs(self):
        rng = np.random.default_rng(0)
        alphabet = ["plain", "with <angle>", "amp & semi;", 'quote "q"',
                    "tab\tin text", "multi\nline", "", "unicode é中"]
        for trial in range(1000):
            n = int(rng.integers(1, 7))
            edges = tuple(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.5
            )
            sub = subgraph(n, edges)
            texts = {
                "title": [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)],
                "abstract": [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n)],
            }
            parsed = parse_graphml(emit_graphml(sub, ACADEMIC_SCHEMA, texts))
            assert parsed.num_nodes == n
            assert parsed.edges == sub.edges
            assert list(parsed.node_attrs["title"]) == texts["title"]
            assert list(parsed.node_attrs["abstract"]) == texts["abstract"]


class TestSchema:
    def test_duplicate_key_ids_rejected(self):
        with pytest.raises(ValidationError):
            GraphMLSchema(node_attr_keys=(("d0", "title"),),
                          edge_attr_key=("d0", "type"))

    def test_needs_one_node_attribute(self):
        with pytest.raises(ValidationError):
            GraphMLSchema(node_attr_keys=())
