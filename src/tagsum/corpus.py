"""Graph-summary pair generation and the line-delimited dataset format.

Pairs reference their subgraph by (graph id, seed node, sampler seed) so the
subgraph can be re-materialized deterministically; only the summary text is
stored. Generation is resumable: seeds already present in the sink are
skipped, and seeds whose requests exhaust their retries land in a failure
manifest instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import requests

from .errors import ParseError, ValidationError, parse_json_object
from .graphml import GraphMLSchema, emit_graphml, parse_graphml
from .graphs import EgoSubgraph, SamplerConfig, TextAttributedGraph, induced_subgraph, rwr_batch
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


def write_pairs(path, pairs: Iterable[GraphSummaryPair], append: bool = False) -> int:
    """Write pairs as JSON lines; returns the number written."""
    mode = "a" if append else "w"
    count = 0
    with open(path, mode, encoding="utf-8") as handle:
        for pair in pairs:
            record = {name: getattr(pair, name) for name in _PAIR_FIELDS}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
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
    environment variable at call time."""

    def __init__(self, config: LlmClientConfig, session=None):
        if not config.endpoint:
            raise ValidationError("endpoint required for HTTP client")
        self.config = config
        self._session = session or requests.Session()

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


def subgraph_node_texts(
    graph: TextAttributedGraph,
    sub: EgoSubgraph,
    schema: GraphMLSchema,
    truncate_chars: int | None = None,
) -> dict[str, list[str]]:
    """Per-attribute text values for a subgraph's nodes, optionally truncated."""
    names = schema.attr_names
    values: dict[str, list[str]] = {name: [] for name in names}
    for g in sub.global_ids:
        parts = split_node_text(graph.raw_text[g], len(names))
        for name, part in zip(names, parts):
            if truncate_chars is not None:
                part = part[:truncate_chars]
            values[name].append(part)
    return values


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
    out_path = Path(out_path)
    if seeds is None:
        seeds = range(graph.num_nodes)

    existing = set()
    if out_path.exists():
        _drop_torn_record(out_path)
        existing = {pair.key for pair in read_pairs(out_path)}

    report = GenerationReport()
    lock = threading.Lock()

    def produce(seed: int):
        if seed not in walks:
            raise ValidationError(f"seed node {seed} out of range")
        sub = induced_subgraph(graph, seed, walks[seed], None)
        texts = subgraph_node_texts(graph, sub, schema, truncate_chars)
        doc = emit_graphml(sub, schema, texts)
        prompt = render_summary_prompt(doc, domain, sub.center_local_id)
        last_error = None
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
                last_error = exc
        raise RuntimeError(str(last_error))

    def handle(seed: int):
        try:
            pair = produce(seed)
        except Exception as exc:  # noqa: BLE001
            with lock:
                report.failures.append({"graph_id": graph.graph_id, "seed_id": seed,
                                        "error": str(exc)})
            return
        with lock:
            write_pairs(out_path, [pair], append=True)
            report.written.append(pair)

    todo = []
    for seed in seeds:
        if (graph.graph_id, seed, sampler_cfg.rng_seed) in existing:
            report.skipped_existing += 1
        else:
            todo.append(seed)

    # Every walk runs before the first request; a seed outside the graph
    # fails on its own, like a request that exhausts its retries.
    valid = [seed for seed in todo if 0 <= seed < graph.num_nodes]
    walks = dict(zip(valid, rwr_batch(graph, valid, [sampler_cfg.rng_seed] * len(valid),
                                      sampler_cfg, None)))
    if max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
            list(pool.map(handle, todo))
    else:
        for seed in todo:
            handle(seed)

    if failure_manifest_path is not None and report.failures:
        with open(failure_manifest_path, "a", encoding="utf-8") as handle_:
            for entry in report.failures:
                handle_.write(json.dumps(entry, sort_keys=True) + "\n")
    return report
