"""GraphML-dialect serialization of ego-subgraphs.

The emitted dialect is deliberately rigid so documents can be checked against
golden files byte-for-byte: fixed key declarations, ``<graph id="G"
edgedefault="undirected">``, nodes ``n0..``, edges ``e0..`` each carrying a
single relation word. Note the emitted edge data tag keeps a space before the
closing bracket (``<data key="d2" >``); that quirk is part of the dialect.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .errors import ParseError, ValidationError
from .graphs import EgoSubgraph

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


@dataclass(frozen=True)
class GraphMLSchema:
    """Key layout of the dialect: node attribute keys, one edge key, and the
    relation word written on every edge."""

    node_attr_keys: tuple[tuple[str, str], ...]
    edge_attr_key: tuple[str, str] = ("d2", "type")
    relation_word: str = "cited"

    def __post_init__(self):
        if not self.node_attr_keys:
            raise ValidationError("schema needs at least one node attribute")
        ids = [k for k, _ in self.node_attr_keys] + [self.edge_attr_key[0]]
        if len(set(ids)) != len(ids):
            raise ValidationError("key ids must be unique")

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.node_attr_keys)


ACADEMIC_SCHEMA = GraphMLSchema(
    node_attr_keys=(("d0", "title"), ("d1", "abstract")),
    edge_attr_key=("d2", "type"),
    relation_word="cited",
)

ECOMMERCE_SCHEMA = GraphMLSchema(
    node_attr_keys=(("d0", "title"), ("d1", "description")),
    edge_attr_key=("d2", "type"),
    relation_word="co-purchased",
)

SOCIAL_SCHEMA = GraphMLSchema(
    node_attr_keys=(("d0", "content"),),
    edge_attr_key=("d2", "type"),
    relation_word="liked",
)

DOMAIN_SCHEMAS = {
    "academic": ACADEMIC_SCHEMA,
    "e-commerce": ECOMMERCE_SCHEMA,
    "social": SOCIAL_SCHEMA,
}


def node_data(schema: GraphMLSchema, values: Sequence[str]) -> str:
    """A node's escaped ``<data>`` lines, one per schema attribute, in the
    form :func:`write_graphml` takes."""
    return "\n".join(f'            <data key="{key_id}">{escape(value)}</data>'
                     for (key_id, _), value in zip(schema.node_attr_keys, values))


def write_graphml(schema: GraphMLSchema, nodes: Sequence[str], edges) -> str:
    """Assemble a document from each local node's :func:`node_data` lines
    and the local ``(u, v)`` edges."""
    edge_id, edge_name = schema.edge_attr_key
    parts = [XML_DECLARATION, "<graphml>"]
    parts.extend(f'<key id="{key_id}" for="node" attr.name="{name}" attr.type="string"/>'
                 for key_id, name in schema.node_attr_keys)
    parts.append(f'<key id="{edge_id}" for="edge" attr.name="{edge_name}" attr.type="string"/>')
    parts.append('<graph id="G" edgedefault="undirected">')
    parts.extend(f'    <node id="n{i}">\n{data}\n    </node>' for i, data in enumerate(nodes))
    relation = f'            <data key="{edge_id}" >{escape(schema.relation_word)}</data>'
    parts.extend(f'    <edge id="e{k}" source="n{u}" target="n{v}">\n{relation}\n    </edge>'
                 for k, (u, v) in enumerate(edges))
    parts.append("</graph>\n</graphml>\n")
    return "\n".join(parts)


def emit_graphml(
    sub: EgoSubgraph,
    schema: GraphMLSchema,
    node_texts: Mapping[str, Sequence[str]],
) -> str:
    """Serialize a subgraph to the dialect.

    ``node_texts`` maps each schema attribute name to one string per local
    node. Raises on any missing value, naming the node and key.
    """
    n = sub.num_nodes
    for key_id, name in schema.node_attr_keys:
        values = node_texts.get(name)
        if values is None or len(values) != n:
            raise ValidationError(
                f"node_texts missing attribute {name!r} (key {key_id}) for {n} nodes"
            )
        for i, value in enumerate(values):
            if value is None:
                raise ValidationError(f"node n{i} has no value for key {key_id} ({name})")
    columns = [node_texts[name] for name in schema.attr_names]
    return write_graphml(schema, [node_data(schema, row) for row in zip(*columns)], sub.edges)


@dataclass(frozen=True)
class ParsedGraphML:
    """Topology and attribute text recovered from a dialect document."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_attrs: dict
    relation_words: tuple[str, ...]

    def to_subgraph(self) -> EgoSubgraph:
        """Skeleton subgraph: identity global ids, no features, center 0."""
        return EgoSubgraph(
            center_local_id=0,
            global_ids=tuple(range(self.num_nodes)),
            features=np.zeros((self.num_nodes, 0), dtype=np.float64),
            edges=self.edges,
        )


def _node_index(raw_id: str, known: dict, context: str) -> int:
    if raw_id not in known:
        raise ParseError(f"{context} references undeclared node {raw_id!r}")
    return known[raw_id]


def parse_graphml(doc: str) -> ParsedGraphML:
    """Parse a document in the dialect; inverse of :func:`emit_graphml` on
    topology and attribute text."""
    try:
        root = ET.fromstring(doc)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from None
    except UnicodeEncodeError as exc:          # a lone surrogate has no UTF-8 form
        raise ParseError(f"malformed XML: {exc.reason}") from None
    if root.tag != "graphml":
        raise ParseError(f"root element is {root.tag!r}, expected 'graphml'")

    keys = {}
    for key in root.findall("key"):
        key_id = key.get("id")
        name = key.get("attr.name")
        target = key.get("for")
        if key_id is None or name is None or target not in ("node", "edge"):
            raise ParseError("key declaration missing id/attr.name/for")
        keys[key_id] = (target, name)

    graph = root.find("graph")
    if graph is None:
        raise ParseError("no <graph> element")

    node_ids = {}
    node_attrs: dict[str, list[str]] = {}
    for element in graph.findall("node"):
        raw = element.get("id")
        if raw is None:
            raise ParseError("node without id")
        if raw in node_ids:
            raise ParseError(f"duplicate node id {raw!r}")
        node_ids[raw] = len(node_ids)
        for data in element.findall("data"):
            key_id = data.get("key")
            if key_id not in keys or keys[key_id][0] != "node":
                raise ParseError(f"node {raw!r} uses unknown key id {key_id!r}")
            node_attrs.setdefault(keys[key_id][1], []).append(data.text or "")

    n = len(node_ids)
    for name, values in node_attrs.items():
        if len(values) != n:
            raise ParseError(f"attribute {name!r} present on {len(values)} of {n} nodes")

    edges = []
    relations = []
    for element in graph.findall("edge"):
        u = _node_index(element.get("source", ""), node_ids, "edge source")
        v = _node_index(element.get("target", ""), node_ids, "edge target")
        if u == v:
            raise ParseError(f"self-loop edge on node index {u}")
        edges.append((min(u, v), max(u, v)))
        word = ""
        for data in element.findall("data"):
            key_id = data.get("key")
            if key_id not in keys or keys[key_id][0] != "edge":
                raise ParseError(f"edge uses unknown key id {key_id!r}")
            word = data.text or ""
        relations.append(word)

    return ParsedGraphML(
        num_nodes=n,
        edges=tuple(edges),
        node_attrs={name: tuple(values) for name, values in node_attrs.items()},
        relation_words=tuple(relations),
    )
