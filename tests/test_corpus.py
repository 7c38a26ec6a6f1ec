"""Pair generation, dataset io, clients."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagsum.corpus import (
    GraphSummaryPair,
    HttpLlmClient,
    LlmClientConfig,
    MockLlmClient,
    generate_pairs,
    read_pairs,
    split_node_text,
    token_count,
    write_pairs,
)
from tagsum.errors import ParseError, TagsumError, ValidationError
from tagsum.graphml import ACADEMIC_SCHEMA
from tagsum.graphs import SamplerConfig, TextAttributedGraph


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
        from tagsum.corpus import subgraph_node_texts
        from tagsum.graphml import emit_graphml
        from tagsum.graphs import rwr_sample
        from tagsum.prompts import render_summary_prompt

        sub = rwr_sample(graph, 2, SAMPLER)
        texts = subgraph_node_texts(graph, sub, ACADEMIC_SCHEMA)
        prompt = render_summary_prompt(
            emit_graphml(sub, ACADEMIC_SCHEMA, texts), "academic",
            sub.center_local_id)
        summary = MockLlmClient().complete(prompt)
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
        assert (sorted(p.key for p in seq.written)
                == sorted(p.key for p in par.written))
        assert ({p.summary for p in read_pairs(tmp_path / "seq.jsonl")}
                == {p.summary for p in read_pairs(tmp_path / "par.jsonl")})

    def test_rejects_negative_retries(self, graph, tmp_path):
        out = tmp_path / "p.jsonl"
        with pytest.raises(ValidationError):
            generate_pairs(graph, SAMPLER, ACADEMIC_SCHEMA, "academic",
                           MockLlmClient(), out, retries=-1)
        assert not out.exists()


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
