"""Graph-summary pair generation and the line-delimited dataset format.

Pairs reference their subgraph by (graph id, seed node, sampler seed) so the
subgraph can be re-materialized deterministically; only the summary text is
stored. Generation is resumable: seeds already present in the sink are
skipped, and seeds whose requests exhaust their retries land in a failure
manifest instead of aborting the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError, parse_json_object
from .graphml import GraphMLSchema, node_data, parse_graphml, write_graphml
from .graphs import INDUCE_CHUNK, SamplerConfig, TextAttributedGraph, induced_edges, rwr_batch
from .prompts import DOMAINS, render_summary_prompt


@dataclass(frozen=True)
class GraphSummaryPair:
    """One pretraining unit: a subgraph reference plus its text summary."""

    graph_id: str
    seed_id: int
    sampler_seed: int
    domain: str
    summary: str
    token_count: int

    def __post_init__(self):
        if not self.summary:
            raise ValidationError("summary must be nonempty")
        if self.token_count <= 0:
            raise ValidationError("token_count must be positive")
        if self.domain not in DOMAINS:
            raise ValidationError(f"unknown domain {self.domain!r}")

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.graph_id, self.seed_id, self.sampler_seed)


def token_count(text: str) -> int:
    """Whitespace token count; corpus metadata, not a modeling input."""
    return len(text.split())


_PAIR_FIELDS = {
    "graph_id": str,
    "seed_id": int,
    "sampler_seed": int,
    "domain": str,
    "summary": str,
    "token_count": int,
}


def _record_line(pair: GraphSummaryPair) -> str:
    return json.dumps({name: getattr(pair, name) for name in _PAIR_FIELDS},
                      sort_keys=True) + "\n"


def write_pairs(path, pairs: Iterable[GraphSummaryPair], append: bool = False) -> int:
    """Write pairs as JSON lines; returns the number written."""
    mode = "a" if append else "w"
    count = 0
    with open(path, mode, encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(_record_line(pair))
            count += 1
    return count


def read_pairs(path) -> list[GraphSummaryPair]:
    """Read and validate a JSON-lines pair dataset."""
    try:
        with open(path, encoding="utf-8") as handle:
            return [_parse_pair(line, lineno)
                    for lineno, line in enumerate(handle, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason}") from None


def _parse_pair(line: str, lineno: int) -> GraphSummaryPair:
    record = parse_json_object(line, lineno)
    for name, kind in _PAIR_FIELDS.items():
        if name not in record:
            raise ParseError(f"missing field {name!r}", line=lineno)
        value = record[name]
        # Exact types: JSON true and false load as bool, a subclass of int.
        if type(value) is not kind:
            raise ParseError(
                f"field {name!r} should be {kind.__name__}, got {type(value).__name__}",
                line=lineno,
            )
        if kind is str:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:      # a lone surrogate from a JSON escape
                raise ParseError(f"field {name!r}: {exc.reason} in {value!r:.40}",
                                 line=lineno) from None
    try:
        return GraphSummaryPair(**{k: record[k] for k in _PAIR_FIELDS})
    except ValidationError as exc:
        raise ParseError(str(exc), line=lineno) from None


@dataclass(frozen=True)
class LlmClientConfig:
    """Connection settings for a chat-completion style summary service."""

    endpoint: str = ""
    model: str = ""
    max_tokens: int = 500
    timeout: float = 30.0
    api_key_env: str = "TAGSUM_API_KEY"

    def __post_init__(self):
        if self.max_tokens <= 0:
            raise ValidationError("max_tokens must be positive")


class HttpLlmClient:
    """Minimal chat-completion client. Bearer token read from the configured
    environment variable at call time. ``requests`` is imported only when no
    session is injected, so runs that make no network call never load the
    HTTP and TLS stack."""

    def __init__(self, config: LlmClientConfig, session=None):
        if not config.endpoint:
            raise ValidationError("endpoint required for HTTP client")
        self.config = config
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def complete(self, prompt: str) -> str:
        cfg = self.config
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(cfg.api_key_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {
            "model": cfg.model,
            "max_tokens": cfg.max_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }
        response = self._session.post(
            cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
        )
        response.raise_for_status()
        body = response.json()
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise ValidationError(f"unexpected response shape: {body!r}") from None


_SEED_PATTERN = re.compile(r"`n(\d+)'")


class MockLlmClient:
    """Deterministic offline stand-in: summarizes the GraphML embedded in the
    prompt by echoing the seed node's first attribute and its neighbors'."""

    def complete(self, prompt: str) -> str:
        start = prompt.find("<?xml")
        if start < 0:
            raise ValidationError("prompt carries no GraphML document")
        parsed = parse_graphml(prompt[start:])
        match = _SEED_PATTERN.search(prompt)
        seed = int(match.group(1)) if match else 0
        first_attr = next(iter(parsed.node_attrs)) if parsed.node_attrs else None
        if first_attr is None:
            return f"Summary of node n{seed}: no attributes."
        values = parsed.node_attrs[first_attr]
        others = [v for i, v in enumerate(values) if i != seed and v]
        summary = f"Summary of node n{seed}: {values[seed]}."
        if others:
            summary += " Related nodes discuss: " + "; ".join(others) + "."
        return summary


def split_node_text(text: str, num_attrs: int) -> list[str]:
    """Split one raw node text across schema attributes.

    Two-attribute schemas split at the first newline (title vs. body); a
    single attribute takes the whole text; extra attributes get "".
    """
    if num_attrs == 1:
        return [text]
    head, sep, rest = text.partition("\n")
    parts = [head, rest if sep else ""]
    while len(parts) < num_attrs:
        parts.append("")
    return parts[:num_attrs]


def _check_truncate_chars(truncate_chars: int | None) -> None:
    if truncate_chars is not None and truncate_chars < 1:
        raise ValidationError(f"truncate_chars must be >= 1 or None, got {truncate_chars}")


def subgraph_documents(
    graph: TextAttributedGraph,
    schema: GraphMLSchema,
    seeds: Sequence[int],
    walks: Sequence[np.ndarray],
    truncate_chars: int | None = None,
) -> Iterator[tuple[int, str]]:
    """Yield ``(seed's local index, GraphML document)`` for each seed in turn.

    ``walks[i]`` holds seed i's sorted visited ids (``rwr_batch``). Edges are
    induced for ``INDUCE_CHUNK`` subgraphs per ``induced_edges`` call, and
    each node's text is split, truncated to ``truncate_chars`` characters
    (None keeps it whole) and escaped once, when a document first needs it.
    """
    _check_truncate_chars(truncate_chars)
    num_attrs = len(schema.node_attr_keys)
    fragments: dict[int, str] = {}
    for start in range(0, len(seeds), INDUCE_CHUNK):
        chunk = walks[start:start + INDUCE_CHUNK]
        batch, local_u, local_v = induced_edges(graph, chunk)
        bounds = np.searchsorted(batch, np.arange(len(chunk) + 1)).tolist()
        local_u, local_v = local_u.tolist(), local_v.tolist()
        for i, seed in enumerate(seeds[start:start + INDUCE_CHUNK]):
            ids = chunk[i].tolist()
            for g in ids:
                if g not in fragments:
                    parts = split_node_text(graph.raw_text[g], num_attrs)
                    if truncate_chars is not None:
                        parts = [part[:truncate_chars] for part in parts]
                    fragments[g] = node_data(schema, parts)
            edges = zip(local_u[bounds[i]:bounds[i + 1]], local_v[bounds[i]:bounds[i + 1]])
            yield ids.index(seed), write_graphml(schema, [fragments[g] for g in ids], edges)


@dataclass
class GenerationReport:
    """Outcome of one generate_pairs run."""

    written: list[GraphSummaryPair] = field(default_factory=list)
    skipped_existing: int = 0
    failures: list[dict] = field(default_factory=list)


def _drop_torn_record(path: Path) -> None:
    """Truncate the bytes after the sink's last newline. Every record ends in
    one, so they are a record whose write was cut off; its seed is then
    generated again."""
    raw = path.read_bytes()
    end = raw.rfind(b"\n") + 1
    if end < len(raw):
        os.truncate(path, end)


def generate_pairs(
    graph: TextAttributedGraph,
    sampler_cfg: SamplerConfig,
    schema: GraphMLSchema,
    domain: str,
    client,
    out_path,
    seeds: Sequence[int] | None = None,
    *,
    retries: int = 2,
    truncate_chars: int | None = 500,
    max_in_flight: int = 1,
    failure_manifest_path=None,
) -> GenerationReport:
    """Generate one pair per seed node and append them to the JSONL sink.

    Failures are retried ``retries`` times, then recorded in the failure
    manifest and skipped. Seeds whose key already exists in the sink are not
    re-generated, which makes interrupted runs resumable; a record torn off
    by the interruption is dropped and its seed generated again.
    """
    if domain not in DOMAINS:
        raise ValidationError(f"unknown domain {domain!r}")
    if retries < 0:
        raise ValidationError("retries must be >= 0")
    if max_in_flight < 1:
        raise ValidationError(f"max_in_flight must be >= 1, got {max_in_flight}")
    _check_truncate_chars(truncate_chars)
    out_path = Path(out_path)
    if seeds is None:
        seeds = range(graph.num_nodes)

    existing = set()
    if out_path.exists():
        _drop_torn_record(out_path)
        existing = {pair.key for pair in read_pairs(out_path)}

    report = GenerationReport()
    todo = []
    for seed in seeds:
        if (graph.graph_id, seed, sampler_cfg.rng_seed) in existing:
            report.skipped_existing += 1
        else:
            todo.append(seed)

    # Every walk runs before the first request; a seed outside the graph
    # fails on its own, like a request that exhausts its retries.
    valid = [seed for seed in todo if 0 <= seed < graph.num_nodes]
    walks = rwr_batch(graph, valid, [sampler_cfg.rng_seed] * len(valid), sampler_cfg, None)
    documents = subgraph_documents(graph, schema, valid, walks, truncate_chars)

    def build_prompt(seed: int) -> str | None:
        if not 0 <= seed < graph.num_nodes:
            return None
        center, doc = next(documents)
        return render_summary_prompt(doc, domain, center)

    def request(seed: int, prompt: str | None) -> GraphSummaryPair | str:
        """The seed's pair, or the error that failed its last attempt."""
        if prompt is None:
            return f"seed node {seed} out of range"
        for _ in range(retries + 1):
            try:
                summary = client.complete(prompt)
                if not summary:
                    raise ValidationError("client returned an empty summary")
                return GraphSummaryPair(
                    graph_id=graph.graph_id,
                    seed_id=seed,
                    sampler_seed=sampler_cfg.rng_seed,
                    domain=domain,
                    summary=summary,
                    token_count=token_count(summary),
                )
            except Exception as exc:  # noqa: BLE001 - client failures are data here
                # Keep the message only: a kept exception's traceback holds
                # this frame, a cycle that lives until the next full collection.
                error = str(exc)
        return error

    with contextlib.ExitStack() as stack:
        pool = None
        if max_in_flight > 1:
            # Imported here: sequential runs never load the thread pool.
            from concurrent.futures import ThreadPoolExecutor
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_in_flight))
        sink = None
        for start in range(0, len(todo), INDUCE_CHUNK):
            # Prompts are built on this thread: one at a time for sequential
            # requests, the whole chunk before it goes to the pool. Results
            # are written in seed order either way.
            chunk = todo[start:start + INDUCE_CHUNK]
            prompts = (build_prompt(seed) for seed in chunk)
            for seed, result in zip(chunk, (pool.map if pool else map)(request, chunk, prompts)):
                if isinstance(result, str):
                    report.failures.append({"graph_id": graph.graph_id, "seed_id": seed,
                                            "error": result})
                    continue
                if sink is None:
                    sink = stack.enter_context(open(out_path, "a", encoding="utf-8"))
                # Flushed per record, so an interrupted run keeps every
                # record it finished.
                sink.write(_record_line(result))
                sink.flush()
                report.written.append(result)

    if failure_manifest_path is not None and report.failures:
        with open(failure_manifest_path, "a", encoding="utf-8") as manifest:
            for entry in report.failures:
                manifest.write(json.dumps(entry, sort_keys=True) + "\n")
    return report
