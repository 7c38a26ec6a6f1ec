"""Frozen sentence-level text encoders.

Two interchangeable implementations sit behind the same interface:

* ``HashTextEncoder`` — deterministic bag-of-token hashing. Each token's
  vector is drawn from a PRNG seeded by the token's SHA-256 digest, so the
  embedding of a text is a pure function of its tokens on any platform.
  Used for tests and desk-scale runs.
* ``TableTextEncoder`` — a closed lookup table of precomputed embeddings
  keyed by the SHA-256 of the exact text. Unknown text is an error, never a
  silent fallback.

Both mean-pool token/entry vectors and L2-normalize the result. Encoders are
frozen by construction: nothing in the package mutates them, and
``state_checksum`` lets training loops assert that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError, parse_json_object
from .graphs import TextAttributedGraph


@dataclass(frozen=True)
class Embedding:
    """A d-dimensional encoding; ``normalized`` asserts unit L2 norm."""

    vector: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        object.__setattr__(self, "vector", vec)
        if self.normalized:
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > 1e-12:
                raise ValidationError(f"embedding marked normalized has norm {norm!r}")

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def _text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalize(vec: np.ndarray) -> Embedding:
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero embedding")
    return Embedding(vector=vec / norm, normalized=True)


class HashTextEncoder:
    """Deterministic bag-of-token hashing encoder."""

    def __init__(self, dim: int = 16):
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        vec = rng.standard_normal(self.dim)
        vec.flags.writeable = False
        self._token_cache[token] = vec
        return vec

    def encode(self, text: str) -> Embedding:
        tokens = text.split()
        if not tokens:
            raise ValidationError("cannot encode empty text")
        mean = np.zeros(self.dim)
        for token in tokens:
            mean += self._token_vector(token)
        mean /= len(tokens)
        return _normalize(mean)

    def state_checksum(self) -> str:
        # The encoder has no trainable state; its identity is (impl, dim).
        return hashlib.sha256(f"hash:{self.dim}".encode()).hexdigest()


def _parse_table_record(line: str, lineno: int) -> tuple[str, np.ndarray]:
    record = parse_json_object(line, lineno)
    key, vector = record.get("sha256"), record.get("vector")
    if not isinstance(key, str):
        raise ParseError("field 'sha256' should be a string", line=lineno)
    if not (isinstance(vector, list) and vector
            and all(type(x) in (int, float) for x in vector)):
        raise ParseError("field 'vector' should be a nonempty list of numbers", line=lineno)
    try:
        vec = np.array(vector, dtype=np.float64)
    except OverflowError:
        raise ParseError("field 'vector' has an entry out of float range", line=lineno) from None
    if not np.all(np.isfinite(vec)):
        raise ParseError("field 'vector' has a non-finite entry", line=lineno)
    return key, vec


class TableTextEncoder:
    """Closed lookup table of precomputed embeddings."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        self.dim = dim
        self._table = table

    @classmethod
    def from_file(cls, path) -> "TableTextEncoder":
        """Load JSONL records ``{"sha256": hex, "vector": [...]}``; a line that
        is not such a record raises ``ParseError`` naming the line."""
        table: dict[str, np.ndarray] = {}
        dim = None
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    key, vec = _parse_table_record(line, lineno)
                    if dim is None:
                        dim = vec.shape[0]
                    elif vec.shape[0] != dim:
                        raise ParseError(f"vector dim {vec.shape[0]} != {dim}", line=lineno)
                    vec.flags.writeable = False
                    table[key] = vec
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}") from None
        if dim is None:
            raise ValidationError("embedding table is empty")
        return cls(table, dim)

    @classmethod
    def build(cls, texts, vectors) -> "TableTextEncoder":
        table = {}
        dim = None
        for text, vec in zip(texts, vectors):
            vec = np.asarray(vec, dtype=np.float64)
            dim = vec.shape[0] if dim is None else dim
            vec.flags.writeable = False
            table[_text_sha256(text)] = vec
        if dim is None:
            raise ValidationError("no entries given")
        return cls(table, dim)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for key in sorted(self._table):
                handle.write(json.dumps(
                    {"sha256": key, "vector": self._table[key].tolist()}) + "\n")

    def encode(self, text: str) -> Embedding:
        key = _text_sha256(text)
        vec = self._table.get(key)
        if vec is None:
            raise ValidationError(
                f"text not present in embedding table (sha256 {key[:12]}...)"
            )
        return _normalize(np.array(vec))

    def state_checksum(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self._table):
            digest.update(key.encode())
            digest.update(self._table[key].tobytes())
        return digest.hexdigest()


def attach_features(graph: TextAttributedGraph, encoder) -> TextAttributedGraph:
    """Return a copy of the graph whose features are the encoded node texts."""
    rows = [encoder.encode(text).vector for text in graph.raw_text]
    features = np.vstack(rows) if rows else np.zeros((0, encoder.dim))
    return dataclasses.replace(graph, features=features)
