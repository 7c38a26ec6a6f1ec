"""Pair generation, dataset io, clients."""

import json
import os
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagsum
from reference import line_emit_graphml, per_seed_corpus, per_seed_document
from tagsum import corpus, graphs
from tagsum.corpus import (
    GraphSummaryPair,
    HttpLlmClient,
    LlmClientConfig,
    MockLlmClient,
    generate_pairs,
    read_pairs,
    split_node_text,
    subgraph_documents,
    token_count,
    write_pairs,
)
from tagsum.errors import ParseError, TagsumError, ValidationError
from tagsum.graphml import ACADEMIC_SCHEMA, DOMAIN_SCHEMAS, emit_graphml
from tagsum.graphs import SamplerConfig, TextAttributedGraph, rwr_batch
from tagsum.prompts import DOMAINS, render_summary_prompt


@pytest.fixture
def graph():
    texts = [f"title {i}\nabstract body {i}" for i in range(6)]
    return TextAttributedGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], texts,
        graph_id="toy")


SAMPLER = SamplerConfig(node_budget=4, max_steps=32, rng_seed=11)


def make_pair(seed=0, summary="a perfectly fine summary"):
    return GraphSummaryPair(
        graph_id="toy", seed_id=seed, sampler_seed=11, domain="academic",
        summary=summary, token_count=token_count(summary))


class TestPairType:
    def test_empty_summary_rejected(self):
        with pytest.raises(ValidationError):
            make_pair(summary="")

    def test_zero_tokens_rejected(self):
        with pytest.raises(ValidationError):
            GraphSummaryPair("g", 0, 0, "academic", "text", 0)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValidationError):
            GraphSummaryPair("g", 0, 0, "finance", "text", 1)


class TestDatasetIo:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        pairs = [make_pair(i) for i in range(5)]
        write_pairs(path, pairs)
        assert read_pairs(path) == pairs

    def test_truncated_last_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, [make_pair(0), make_pair(1)])
        content = path.read_text(encoding="utf-8")
        path.write_text(content[: len(content) - 20], encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_pairs(path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_pairs(path) == []

    def test_schema_violation_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        record = {"graph_id": "g", "seed_id": "not-an-int", "sampler_seed": 0,
                  "domain": "academic", "summary": "s", "token_count": 1}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_pairs(path)
        assert "seed_id" in str(err.value) and "line 1" in str(err.value)


    @pytest.mark.parametrize("line", ["5", "[]", '"text"', "null"])
    def test_non_object_line_is_parse_error(self, tmp_path, line):
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, [make_pair(0)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(ParseError) as err:
            read_pairs(path)
        assert err.value.line == 2

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, [make_pair(0)])
        path.write_bytes(path.read_bytes() + b'{"summary": "caf\xe9"}\n')
        with pytest.raises(ParseError, match="UTF-8"):
            read_pairs(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def pair_lines(draw):
    """One JSON line: a valid record, one with a field replaced, or any value."""
    record = {name: getattr(make_pair(3), name) for name in
              ("graph_id", "seed_id", "sampler_seed", "domain", "summary", "token_count")}
    if draw(st.booleans()):
        record[draw(st.sampled_from(sorted(record)))] = draw(JSON_VALUES)
    elif draw(st.booleans()):
        record = draw(JSON_VALUES)
    return json.dumps(record).encode("utf-8")


class TestReadPairsProperty:
    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=96)
           | st.lists(pair_lines() | st.binary(max_size=16), max_size=4)
           .map(b"\n".join))
    def test_any_bytes_load_or_raise_tagsum_error(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_bytes(body)
        try:
            read_pairs(path)
        except TagsumError:
            pass


class TestSplitNodeText:
    def test_two_attrs_split_at_newline(self):
        assert split_node_text("title\nbody text", 2) == ["title", "body text"]

    def test_no_newline_gives_empty_second(self):
        assert split_node_text("only title", 2) == ["only title", ""]

    def test_single_attr_takes_all(self):
        assert split_node_text("a\nb", 1) == ["a\nb"]


class TestMockClient:
    def test_echoes_seed_title(self, graph):
        walks = rwr_batch(graph, [2], [SAMPLER.rng_seed], SAMPLER, None)
        [(center, doc)] = subgraph_documents(graph, ACADEMIC_SCHEMA, [2], walks)
        summary = MockLlmClient().complete(render_summary_prompt(doc, "academic", center))
        assert "title 2" in summary

    def test_all_generated_summaries_contain_seed_title(self, graph, tmp_path):
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), tmp_path / "p.jsonl", retries=0)
        for pair in report.written:
            assert f"title {pair.seed_id}" in pair.summary


class FailingClient:
    """Fails permanently for chosen seeds' prompts, else delegates to the mock."""

    def __init__(self, poison_titles):
        self.poison = poison_titles
        self.mock = MockLlmClient()

    def complete(self, prompt):
        if any(title in prompt for title in self.poison):
            raise RuntimeError("service unavailable")
        return self.mock.complete(prompt)


class InterruptingClient:
    """Answers like the mock for ``k`` prompts, then interrupts the run."""

    def __init__(self, k):
        self.left = k
        self.mock = MockLlmClient()

    def complete(self, prompt):
        if not self.left:
            raise KeyboardInterrupt
        self.left -= 1
        return self.mock.complete(prompt)


class RecordingClient:
    """Answers like the mock and keeps every prompt it was sent."""

    def __init__(self):
        self.prompts = []
        self.mock = MockLlmClient()

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.mock.complete(prompt)


class TestGeneratePairs:
    def test_one_pair_per_seed(self, graph, tmp_path):
        out = tmp_path / "pairs.jsonl"
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), out, retries=0)
        assert len(report.written) == 6
        pairs = read_pairs(out)
        assert {p.seed_id for p in pairs} == set(range(6))
        assert all(p.summary and p.token_count > 0 for p in pairs)

    def test_failures_recorded_not_fatal(self, graph, tmp_path):
        out = tmp_path / "pairs.jsonl"
        manifest = tmp_path / "failures.jsonl"
        client = FailingClient(poison_titles=["title 3"])
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                client, out, retries=1,
                                failure_manifest_path=manifest)
        # seed 3 always fails; neighboring seeds fail only if their subgraph
        # contains node 3's title
        failed_seeds = {f["seed_id"] for f in report.failures}
        assert 3 in failed_seeds
        assert len(report.written) == 6 - len(failed_seeds)
        entries = [json.loads(line) for line in
                   manifest.read_text().strip().splitlines()]
        assert {e["seed_id"] for e in entries} == failed_seeds

    def test_seed_outside_the_graph_is_a_failure(self, graph, tmp_path):
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), tmp_path / "p.jsonl", seeds=[7, 0, -1],
                                retries=0)
        assert [p.seed_id for p in report.written] == [0]
        assert [(f["seed_id"], f["error"]) for f in report.failures] == [
            (7, "seed node 7 out of range"), (-1, "seed node -1 out of range")]

    def test_resume_skips_existing(self, graph, tmp_path):
        out = tmp_path / "pairs.jsonl"
        first = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                               MockLlmClient(), out, seeds=range(3), retries=0)
        assert len(first.written) == 3
        second = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), out, seeds=range(6), retries=0)
        assert second.skipped_existing == 3
        assert len(second.written) == 3
        pairs = read_pairs(out)
        assert len(pairs) == 6
        assert len({p.key for p in pairs}) == 6

    @pytest.mark.parametrize("k", [1, 4])
    def test_resume_after_a_torn_write(self, graph, tmp_path, k):
        whole = tmp_path / "whole.jsonl"
        generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                       MockLlmClient(), whole, retries=0)
        out = tmp_path / "pairs.jsonl"
        with pytest.raises(KeyboardInterrupt):
            generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                           InterruptingClient(k), out, retries=0)
        raw = out.read_bytes()
        assert raw.count(b"\n") == k and raw.endswith(b"\n")
        last = raw.rfind(b"\n", 0, len(raw) - 1) + 1
        out.write_bytes(raw[:(last + len(raw)) // 2])     # the last record, cut in half
        with pytest.raises(ParseError):
            read_pairs(out)
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), out, retries=0)
        assert report.skipped_existing == k - 1
        assert out.read_bytes() == whole.read_bytes()

    def test_resume_rejects_a_malformed_complete_line(self, graph, tmp_path):
        out = tmp_path / "pairs.jsonl"
        write_pairs(out, [make_pair(0)])
        with open(out, "a", encoding="utf-8") as handle:
            handle.write("{torn\n")
        with pytest.raises(ParseError, match="line 2"):
            generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                           MockLlmClient(), out, retries=0)

    def test_parallel_generation_same_set(self, graph, tmp_path):
        seq = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                             MockLlmClient(), tmp_path / "seq.jsonl", retries=0)
        par = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                             MockLlmClient(), tmp_path / "par.jsonl", retries=0,
                             max_in_flight=4)
        assert par.written == seq.written
        assert (tmp_path / "par.jsonl").read_bytes() == (tmp_path / "seq.jsonl").read_bytes()

    def test_rejects_negative_retries(self, graph, tmp_path):
        out = tmp_path / "p.jsonl"
        with pytest.raises(ValidationError):
            generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                           MockLlmClient(), out, retries=-1)
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("max_in_flight", 0), ("max_in_flight", -2),
        ("truncate_chars", 0), ("truncate_chars", -1)])
    def test_rejects_out_of_range_options(self, graph, tmp_path, option, value):
        out = tmp_path / "p.jsonl"
        with pytest.raises(ValidationError, match=option):
            generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                           MockLlmClient(), out, **{option: value})
        assert not out.exists()

    def test_one_induction_per_chunk_and_one_sink_handle(self, tmp_path, monkeypatch):
        n = 2 * corpus.INDUCE_CHUNK + 5
        ring = TextAttributedGraph.from_edges(
            n, [(i, (i + 1) % n) for i in range(n)],
            [f"title {i}\nbody & <{i}>" for i in range(n)], graph_id="ring")
        out = tmp_path / "p.jsonl"
        induced, opened = [], []
        real_induced_edges, real_open = corpus.induced_edges, open

        def counting_induced_edges(*args, **kwargs):
            induced.append(len(args[1]))
            return real_induced_edges(*args, **kwargs)

        def counting_open(path, mode="r", *args, **kwargs):
            opened.append((Path(path), mode))
            return real_open(path, mode, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("per-seed induced_subgraph called")

        monkeypatch.setattr(corpus, "induced_edges", counting_induced_edges)
        monkeypatch.setattr(corpus, "open", counting_open, raising=False)
        monkeypatch.setattr(graphs, "induced_subgraph", refuse)
        client = RecordingClient()
        report = generate_pairs(ring, SAMPLER, ACADEMIC_SCHEMA, "academic", client, out,
                                retries=0)
        assert len(report.written) == n
        assert induced == [corpus.INDUCE_CHUNK, corpus.INDUCE_CHUNK, 5]   # ceil(n / chunk) calls
        assert opened == [(out, "a")]
        monkeypatch.undo()
        prompts, sink = per_seed_corpus(ring, range(n), SAMPLER, ACADEMIC_SCHEMA, "academic",
                                        500, MockLlmClient())
        assert client.prompts == prompts
        assert out.read_bytes() == sink

    def test_sink_keeps_every_finished_record_when_the_process_dies(self, graph, tmp_path):
        whole = tmp_path / "whole.jsonl"
        generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic", MockLlmClient(), whole,
                       retries=0)
        out, k = tmp_path / "pairs.jsonl", 3
        script = f"""
import os, sys
from tagsum.corpus import MockLlmClient, generate_pairs
from tagsum.graphml import ACADEMIC_SCHEMA
from tagsum.graphs import SamplerConfig, TextAttributedGraph

class DyingClient:
    left = {k}
    def complete(self, prompt):
        if not self.left:
            os._exit(17)
        self.left -= 1
        return MockLlmClient().complete(prompt)

graph = TextAttributedGraph.from_edges(
    {graph.num_nodes}, {[tuple(map(int, e)) for e in graph.edges]!r}, {list(graph.raw_text)!r},
    graph_id={graph.graph_id!r})
generate_pairs(graph, SamplerConfig(node_budget={SAMPLER.node_budget},
                                    max_steps={SAMPLER.max_steps}, rng_seed={SAMPLER.rng_seed}),
               ACADEMIC_SCHEMA, "academic", DyingClient(), sys.argv[1], retries=0)
"""
        src = str(Path(tagsum.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(out)], timeout=120,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True)
        assert done.returncode == 17, done.stderr.decode()
        raw = out.read_bytes()
        assert raw.count(b"\n") == k and raw.endswith(b"\n")
        assert len(read_pairs(out)) == k
        report = generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                                MockLlmClient(), out, retries=0)
        assert report.skipped_existing == k
        assert out.read_bytes() == whole.read_bytes()


# Node text with the characters the dialect escapes and the split point.
NODE_TEXT = st.text(alphabet="ab <&>\n'\"", max_size=10)


@st.composite
def corpus_inputs(draw):
    """A small graph (some nodes isolated), seeds in it plus one outside it."""
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    texts = draw(st.lists(NODE_TEXT, min_size=n, max_size=n))
    graph = TextAttributedGraph.from_edges(n, edges, texts, graph_id="prop")
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
    seeds.insert(draw(st.integers(0, len(seeds))), draw(st.sampled_from([-1, n, n + 3])))
    return graph, seeds


class TestAgainstPerSeedBuilder:
    """Batched documents, prompts and sink bytes equal the per-seed builder's."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=corpus_inputs(), domain=st.sampled_from(DOMAINS),
           truncate_chars=st.sampled_from([None, 1, 4]), chunk=st.integers(1, 4),
           max_in_flight=st.sampled_from([1, 4]))
    def test_prompts_and_sink(self, inputs, domain, truncate_chars, chunk, max_in_flight):
        graph, seeds = inputs
        schema = DOMAIN_SCHEMAS[domain]
        sampler = SamplerConfig(node_budget=4, max_steps=24, rng_seed=5)
        client = RecordingClient()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(corpus, "INDUCE_CHUNK", chunk):
            out, manifest = Path(tmp) / "pairs.jsonl", Path(tmp) / "failures.jsonl"
            report = generate_pairs(graph, sampler, schema, domain, client, out, seeds,
                                    retries=0, truncate_chars=truncate_chars,
                                    max_in_flight=max_in_flight,
                                    failure_manifest_path=manifest)
            sink, failures = out.read_bytes(), manifest.read_text().splitlines()
        prompts, expected = per_seed_corpus(graph, seeds, sampler, schema, domain,
                                            truncate_chars, MockLlmClient())
        assert sink == expected
        if max_in_flight == 1:
            assert client.prompts == prompts
        else:
            assert sorted(client.prompts) == sorted(prompts)
        outside = [s for s in seeds if not 0 <= s < graph.num_nodes]
        assert [json.loads(line)["seed_id"] for line in failures] == outside
        assert [f["error"] for f in report.failures] == [f"seed node {outside[0]} out of range"]

    @settings(max_examples=30, deadline=None)
    @given(inputs=corpus_inputs(), domain=st.sampled_from(DOMAINS),
           truncate_chars=st.sampled_from([None, 2]))
    def test_documents_and_emit_graphml(self, inputs, domain, truncate_chars):
        graph, seeds = inputs
        schema = DOMAIN_SCHEMAS[domain]
        seeds = [s for s in seeds if 0 <= s < graph.num_nodes]
        walks = rwr_batch(graph, seeds, [SAMPLER.rng_seed] * len(seeds), SAMPLER, None)
        for seed, (center, doc) in zip(
                seeds, subgraph_documents(graph, schema, seeds, walks, truncate_chars)):
            sub, expected = per_seed_document(graph, seed, SAMPLER, schema, truncate_chars)
            assert (center, doc) == (sub.center_local_id, expected)
            texts = {name: [split_node_text(graph.raw_text[g], len(schema.attr_names))[i]
                            for g in sub.global_ids]
                     for i, name in enumerate(schema.attr_names)}
            assert emit_graphml(sub, schema, texts) == line_emit_graphml(sub, schema, texts)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        prompt = body["messages"][0]["content"]
        reply = {"choices": [{"message": {
            "content": f"echo:{body['model']}:{len(prompt)}"}}]}
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestHttpClient:
    def test_round_trip_against_local_stub(self):
        server = HTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            client = HttpLlmClient(LlmClientConfig(
                endpoint=f"http://127.0.0.1:{port}/v1/chat", model="toy-model"))
            out = client.complete("hello world")
            assert out == "echo:toy-model:11"
        finally:
            server.shutdown()

    def test_requires_endpoint(self):
        with pytest.raises(ValidationError):
            HttpLlmClient(LlmClientConfig(endpoint=""))
