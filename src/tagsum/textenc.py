"""Frozen sentence-level text encoders.

Two interchangeable implementations sit behind the same interface, whose
one path is ``encode_texts(texts)``, an (n, dim) array of unit rows; one
text is ``encode_texts([text])[0]``.

* ``HashTextEncoder`` — deterministic bag-of-token hashing. Each token's
  vector is drawn from a PCG64 seeded by the token's SHA-256 digest, so the
  embedding of a text is a pure function of its tokens on any platform. A
  batch seeds its new tokens in one vectorized pass and adds each row's
  token vectors in text order. Used for tests and desk-scale runs.
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
import itertools
import json
from array import array
from dataclasses import dataclass

import numpy as np

from .atomic import replacing
from .errors import ParseError, ValidationError, parse_json_object
from .graphs import TextAttributedGraph, _pcg64_states, _seed_pools


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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row, as one stacked matmul: each row is the
    same BLAS dot as the 1-D ``a[i] @ b[i]``, so it matches bit for bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Each row over its L2 norm, ``sqrt(x @ x)`` as ``np.linalg.norm`` takes it."""
    norms = np.sqrt(_row_dots(matrix, matrix))
    if np.any(norms == 0.0):
        raise ValidationError("cannot normalize a zero embedding")
    return matrix / norms[:, None]


class HashTextEncoder:
    """Deterministic bag-of-token hashing encoder."""

    def __init__(self, dim: int = 16):
        if dim < 1:
            raise ValidationError("dim must be >= 1")
        self.dim = dim
        # Token -> its row of ``_vectors`` (first-seen order); rows from ``_seeded`` on are unset.
        self._token_ids: dict[str, int] = {}
        self._vectors = np.empty((0, dim))
        self._seeded = 0
        self._rng = np.random.Generator(np.random.PCG64())

    def _seed_new_tokens(self) -> None:
        """Draw ``Generator(PCG64(seed)).standard_normal(dim)`` for each token
        past ``_seeded``, its seed from its SHA-256: all PCG64 states at once,
        then one shared generator set to each in turn."""
        new = list(itertools.islice(self._token_ids, self._seeded, None))
        seeds = b"".join(hashlib.sha256(token.encode("utf-8")).digest()[:8] for token in new)
        # SeedSequence(seed) takes a 64-bit seed as its low and high 32-bit words.
        states = _pcg64_states(_seed_pools(np.frombuffer(seeds, dtype="<u4").reshape(-1, 2)))
        if len(self._token_ids) > len(self._vectors):   # doubling keeps one-text calls cheap
            self._vectors = np.resize(self._vectors, (
                max(len(self._token_ids), 2 * len(self._vectors)), self.dim))
        setting = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        for row, (high, low, inc_high, inc_low) in zip(self._vectors[self._seeded:],
                                                       states.tolist()):
            setting["state"] = {"state": (high << 64) | low, "inc": (inc_high << 64) | inc_low}
            self._rng.bit_generator.state = setting
            self._rng.standard_normal(out=row)
        self._seeded = len(self._token_ids)

    def encode_texts(self, texts) -> np.ndarray:
        """(len(texts), dim): each text's mean whitespace-token vector, added
        in text order, as a unit row. The first empty text raises."""
        index = self._token_ids
        ids, lengths = array("q"), array("q")
        try:
            for text in texts:
                tokens = text.split()
                if not tokens:
                    self._seed_new_tokens()    # so an earlier text's bad token raises first
                    raise ValidationError("cannot encode empty text")
                ids.extend([index.setdefault(token, len(index)) for token in tokens])
                lengths.append(len(tokens))
            self._seed_new_tokens()
        except BaseException:                  # forget the tokens that have no vector
            self._token_ids = dict(itertools.islice(index.items(), self._seeded))
            raise
        ids, lengths = np.frombuffer(ids, dtype=np.int64), np.frombuffer(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        sums = np.zeros((len(lengths), self.dim))
        for k in range(lengths.max(initial=0)):
            rows = np.flatnonzero(lengths > k)
            sums[rows] += self._vectors[ids[starts[rows] + k]]
        return _unit_rows(sums / lengths[:, None])

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
        """Table mapping ``texts[i]`` to ``vectors[i]``. Vectors must be
        nonempty, flat, finite and of one dim, one per text, as ``from_file``
        requires; the first entry that is not raises ``ValidationError``
        naming its index."""
        texts, vectors = list(texts), list(vectors)
        table = {}
        dim = None
        for i, (text, vec) in enumerate(zip(texts, vectors)):
            try:
                vec = np.array(vec, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                vec = None
            if vec is None or vec.ndim != 1 or not len(vec) or not np.isfinite(vec).all():
                raise ValidationError(
                    f"entry {i}: vector should be a nonempty list of finite numbers")
            dim = len(vec) if dim is None else dim
            if len(vec) != dim:
                raise ValidationError(f"entry {i}: vector dim {len(vec)} != {dim}")
            vec.flags.writeable = False
            table[_text_sha256(text)] = vec
        if len(texts) != len(vectors):
            raise ValidationError(f"entry {min(len(texts), len(vectors))}: "
                                  f"{len(texts)} texts but {len(vectors)} vectors")
        if dim is None:
            raise ValidationError("no entries given")
        return cls(table, dim)

    def save(self, path) -> None:
        with replacing(path) as temp, open(temp, "w", encoding="utf-8") as handle:
            for key in sorted(self._table):
                handle.write(json.dumps(
                    {"sha256": key, "vector": self._table[key].tolist()}) + "\n")

    def encode_texts(self, texts) -> np.ndarray:
        """(len(texts), dim) unit rows, one table lookup per text. The first
        text not in the table raises."""
        keys = [_text_sha256(text) for text in texts]
        missing = next((key for key in keys if key not in self._table), None)
        if missing is not None:
            raise ValidationError(
                f"text not present in embedding table (sha256 {missing[:12]}...)")
        return _unit_rows(np.array([self._table[key] for key in keys]).reshape(-1, self.dim))

    def state_checksum(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self._table):
            digest.update(key.encode())
            digest.update(self._table[key].tobytes())
        return digest.hexdigest()


def attach_features(graph: TextAttributedGraph, encoder) -> TextAttributedGraph:
    """Return a copy of the graph whose features are the encoded node texts."""
    return dataclasses.replace(graph, features=encoder.encode_texts(graph.raw_text))
