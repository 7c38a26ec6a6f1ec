"""Command-line surface: artifacts, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagsum
from tagsum.adapt import save_label_prompt_asset
from tagsum.cli import (
    DEFAULT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, _apply_dotted,
    ALIASES, COMMANDS, _expected_type, UNSET_TYPES, _merge, build_parser, main,
)
from tagsum.encoder import CHECKPOINT_MAGIC, GraphEncoderConfig, ParamStore, save_checkpoint
from tagsum.errors import ValidationError
from tagsum.graphs import TextAttributedGraph, load_graph, save_graph
from tagsum.pretrain import AdamW
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_tag,
)
from tagsum.textenc import HashTextEncoder, TableTextEncoder

SMALL = ["--encoder.layers", "1", "--encoder.hidden", "8", "--encoder.heads", "2",
         "--encoder.positional_dim", "3", "--encoder.text_dim", "8",
         "--sampler.node_budget", "5", "--sampler.max_steps", "40"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    graph = make_synthetic_tag(40, seed=3, graph_id="cligraph")
    save_graph(graph, root / "graph.tsv")
    save_label_prompt_asset(root / "labels.json", LABEL_TEMPLATE,
                            CLASS_KEYWORDS, CLASS_DESCRIPTIONS)
    return root


@pytest.fixture(scope="module")
def corpus(workdir):
    out = workdir / "corpus"
    code = main(["gen-corpus", "--graph", str(workdir / "graph.tsv"),
                 "--out", str(out), "--corpus.num_seeds", "24", *SMALL])
    assert code == EXIT_OK
    return out / "pairs.jsonl"


@pytest.fixture(scope="module")
def checkpoint(workdir, corpus):
    out = workdir / "train"
    code = main(["pretrain", "--graph", str(workdir / "graph.tsv"),
                 "--pairs", str(corpus), "--out", str(out),
                 "--optimizer.lr", "0.002",
                 "--pretrain.epochs", "3", "--pretrain.batch_size", "6", *SMALL])
    assert code == EXIT_OK
    return out / "checkpoint.bin"


class TestArtifacts:
    def test_run_dir_contents(self, workdir, corpus):
        run = corpus.parent
        assert (run / "resolved_config.json").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert any("graph.tsv" in k for k in manifest["inputs"])

    def test_corpus_has_pairs(self, corpus):
        lines = corpus.read_text().strip().splitlines()
        assert len(lines) == 24

    def test_sample_writes_graphml(self, workdir):
        out = workdir / "sample"
        code = main(["sample", "--graph", str(workdir / "graph.tsv"),
                     "--out", str(out), "--corpus.num_seeds", "3", *SMALL])
        assert code == EXIT_OK
        docs = list((out / "subgraphs").glob("*.graphml"))
        assert len(docs) == 3
        assert docs[0].read_text().startswith('<?xml version="1.0"')


class TestPretrainCli:
    def test_checkpoint_written(self, checkpoint):
        assert checkpoint.exists()
        assert (checkpoint.parent / "metrics.csv").exists()

    def test_rerun_bit_identical(self, workdir, corpus, checkpoint):
        out = workdir / "train_again"
        code = main(["pretrain", "--graph", str(workdir / "graph.tsv"),
                     "--pairs", str(corpus), "--out", str(out),
                     "--optimizer.lr", "0.002",
                     "--pretrain.epochs", "3", "--pretrain.batch_size", "6",
                     *SMALL])
        assert code == EXIT_OK
        assert (out / "checkpoint.bin").read_bytes() == checkpoint.read_bytes()


class TestEvalCli:
    def test_eval_nc_zero_shot(self, workdir, checkpoint):
        out = workdir / "eval"
        code = main(["eval-nc", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint),
                     "--labels", str(workdir / "labels.json"),
                     "--out", str(out), "--shots", "0",
                     "--adapt.runs", "2", *SMALL])
        assert code == EXIT_OK
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "dataset,task,shots,seed,metric,value"
        assert len(report) == 3

    def test_eval_nc_with_shots_is_usage_error(self, workdir, checkpoint):
        code = main(["eval-nc", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint),
                     "--labels", str(workdir / "labels.json"),
                     "--out", str(workdir / "evalbad"), "--shots", "3", *SMALL])
        assert code == EXIT_USAGE

    def test_eval_lp(self, workdir, checkpoint):
        out = workdir / "evallp"
        code = main(["eval-lp", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint),
                     "--out", str(out), "--adapt.runs", "1",
                     "--adapt.link_test_fraction", "0.1", *SMALL])
        assert code == EXIT_OK
        assert (out / "report.csv").exists()

    def test_eval_lp_takes_the_text_width_from_the_checkpoint(self, workdir, tmp_path):
        config = GraphEncoderConfig(layers=1, hidden=8, heads=2, positional_dim=3, text_dim=24)
        save_checkpoint(tmp_path / "wide.bin", ParamStore.initialize(config), config)
        code = main(["eval-lp", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(tmp_path / "wide.bin"), "--out", str(tmp_path / "lp"),
                     "--adapt.runs", "1"])
        assert code == EXIT_OK

    def test_tune(self, workdir, checkpoint):
        out = workdir / "tune"
        code = main(["tune", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint),
                     "--labels", str(workdir / "labels.json"),
                     "--out", str(out), "--shots", "2",
                     "--adapt.runs", "1", "--adapt.tune_epochs", "4", *SMALL])
        assert code == EXIT_OK
        assert (out / "prompt_seed0.json").exists()
        report = (out / "report.csv").read_text()
        assert "prompt-tuning" in report and "zero-shot-baseline" in report


class TestEndToEndCli:
    def test_synthetic_transfer_through_the_cli(self, tmp_path):
        # Write the synthetic fixture to disk, pretrain through the CLI, and
        # verify zero-shot accuracy on the held-out target clears 0.9.
        from tagsum.corpus import write_pairs
        from tagsum.synthetic import make_synthetic_pairs

        toy = ["--encoder.layers", "2", "--encoder.hidden", "32",
               "--encoder.heads", "4", "--encoder.positional_dim", "8",
               "--encoder.text_dim", "24",
               "--sampler.node_budget", "8", "--sampler.max_steps", "64"]
        source = make_synthetic_tag(200, seed=0, graph_id="src")
        save_graph(source, tmp_path / "src.tsv")
        write_pairs(tmp_path / "pairs.jsonl",
                    make_synthetic_pairs(source, range(200)))
        target = make_synthetic_tag(90, seed=99, graph_id="tgt")
        save_graph(target, tmp_path / "tgt.tsv")
        save_label_prompt_asset(tmp_path / "labels.json", LABEL_TEMPLATE,
                                CLASS_KEYWORDS, CLASS_DESCRIPTIONS)

        code = main(["pretrain", "--graph", str(tmp_path / "src.tsv"),
                     "--pairs", str(tmp_path / "pairs.jsonl"),
                     "--out", str(tmp_path / "train"),
                     "--optimizer.lr", "0.005",
                     "--pretrain.epochs", "40", "--pretrain.batch_size", "16",
                     "--pretrain.checkpoint_every", "0", *toy])
        assert code == EXIT_OK

        out = tmp_path / "eval"
        code = main(["eval-nc", "--graph", str(tmp_path / "tgt.tsv"),
                     "--checkpoint", str(tmp_path / "train" / "checkpoint.bin"),
                     "--labels", str(tmp_path / "labels.json"),
                     "--out", str(out), "--shots", "0", *toy])
        assert code == EXIT_OK
        rows = (out / "report.csv").read_text().strip().splitlines()[1:]
        accuracies = [float(r.rsplit(",", 1)[1]) for r in rows]
        assert sum(accuracies) / len(accuracies) > 0.9


class TestTheoryCli:
    def test_theory_passes(self, tmp_path):
        out = tmp_path / "theory"
        code = main(["theory", "--zeta", "0.04", "--out", str(out),
                     "--theory.samples", "200000",
                     "--theory.grid_samples", "20000"])
        assert code == EXIT_OK
        text = (out / "theory_report.txt").read_text()
        assert "PASS" in text


class TestGradCheckCli:
    def test_grad_check_passes(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["grad-check", "--out", str(out), "--gradcheck.trials", "1"])
        assert code == EXIT_OK
        assert "PASS" in (out / "gradcheck_report.txt").read_text()

    def test_unattainable_tolerance_fails_gate(self, tmp_path):
        # Below float64 finite-difference resolution: the gate must trip.
        out = tmp_path / "gcfail"
        code = main(["grad-check", "--out", str(out),
                     "--gradcheck.trials", "1",
                     "--gradcheck.tolerance", "1e-15"])
        assert code == EXIT_GATE
        assert "FAIL" in (out / "gradcheck_report.txt").read_text()


class TestErrors:
    def test_missing_graph_is_usage_error(self, tmp_path):
        code = main(["pretrain", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        code = main(["theory", "--out", str(tmp_path / "y"),
                     "--theory.bogus_knob", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        parsed = json.loads(err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_config_file_merge_and_override(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theory": {"zeta": 0.5}}))
        out = tmp_path / "z"
        code = main(["theory", "--config", str(config), "--out", str(out),
                     "--theory.samples", "50000",
                     "--theory.grid_samples", "10000"])
        assert code == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["theory"]["zeta"] == 0.5
        assert resolved["theory"]["samples"] == 50000

    def test_malformed_config_file_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"theory": {"zeta": 0.5')
        code = main(["theory", "--config", str(config), "--out", str(tmp_path / "c")])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION

    def test_truncated_checkpoint_is_validation_error(self, workdir, checkpoint, tmp_path):
        raw = checkpoint.read_bytes()
        for cut in (10, len(raw) - 3):
            truncated = tmp_path / f"cut{cut}.bin"
            truncated.write_bytes(raw[:cut])
            code = main(["eval-lp", "--graph", str(workdir / "graph.tsv"),
                         "--checkpoint", str(truncated),
                         "--out", str(tmp_path / f"out{cut}"), *SMALL])
            assert code == EXIT_VALIDATION

    def test_checkpoint_tensors_out_of_sorted_order_is_validation_error(
            self, workdir, checkpoint, tmp_path, capsys):
        raw = checkpoint.read_bytes()
        end = 12 + struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:end])
        header["tensors"].reverse()
        text = json.dumps(header).encode()
        (tmp_path / "reordered.bin").write_bytes(
            raw[:8] + struct.pack("<I", len(text)) + text + raw[end:])
        code = main(["eval-lp", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(tmp_path / "reordered.bin"),
                     "--out", str(tmp_path / "out"), *SMALL])
        assert code == EXIT_VALIDATION
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "checkpoint tensors are not in sorted-name order",
                         "code": EXIT_VALIDATION}

    def test_checkpoint_with_a_nan_parameter_is_validation_error(
            self, workdir, checkpoint, tmp_path, capsys):
        raw = bytearray(checkpoint.read_bytes())
        raw[-8:] = struct.pack("<d", float("nan"))
        (tmp_path / "nan.bin").write_bytes(raw)
        code = main(["eval-nc", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(tmp_path / "nan.bin"),
                     "--labels", str(workdir / "labels.json"),
                     "--out", str(tmp_path / "out"), "--shots", "0", *SMALL])
        assert code == EXIT_VALIDATION
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "checkpoint holds non-finite parameters",
                         "code": EXIT_VALIDATION}

    def test_tune_without_runs_is_validation_error(self, workdir, checkpoint, tmp_path):
        code = main(["tune", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint),
                     "--labels", str(workdir / "labels.json"),
                     "--out", str(tmp_path / "tune0"), "--shots", "2",
                     "--adapt.runs", "0", *SMALL])
        assert code == EXIT_VALIDATION

    def test_link_prediction_without_enough_non_edges_is_validation_error(
            self, checkpoint, tmp_path):
        # K4 has no non-edge to sample as a negative.
        k4 = TextAttributedGraph.from_edges(
            4, [(u, v) for u in range(4) for v in range(u + 1, 4)], ["node"] * 4)
        save_graph(k4, tmp_path / "k4.tsv")
        code = main(["eval-lp", "--graph", str(tmp_path / "k4.tsv"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "k4"), *SMALL])
        assert code == EXIT_VALIDATION

    def test_label_asset_missing_key_is_validation_error(self, workdir, checkpoint,
                                                          tmp_path):
        for key in ("classes", "template"):
            spec = json.loads((workdir / "labels.json").read_text())
            del spec[key]
            labels = tmp_path / f"no_{key}.json"
            labels.write_text(json.dumps(spec))
            code = main(["eval-nc", "--graph", str(workdir / "graph.tsv"),
                         "--checkpoint", str(checkpoint), "--labels", str(labels),
                         "--out", str(tmp_path / f"out_{key}"), "--shots", "0",
                         *SMALL])
            assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command, shots", [("eval-nc", "0"), ("tune", "2")])
    @pytest.mark.parametrize("edit", [
        lambda spec: spec.update(classes=[]),
        lambda spec: spec["classes"][0].update(name=7),
        lambda spec: spec["classes"][0].update(description=["first"]),
        lambda spec: spec.update(template=None),
        lambda spec: spec["classes"][1].update(id=True),
        lambda spec: spec["classes"][0].update(id=0.0),
    ], ids=["no-classes", "number-name", "list-description", "null-template", "bool-id",
            "float-id"])
    def test_malformed_label_asset_is_validation_error(self, workdir, checkpoint, tmp_path,
                                                       capsys, command, shots, edit):
        spec = json.loads((workdir / "labels.json").read_text())
        edit(spec)
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(spec))
        code = main([command, "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint), "--labels", str(labels),
                     "--out", str(tmp_path / "out"), "--shots", shots, *SMALL])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize("header", [
        [], {}, {"format_version": 1, "config": {"layers": "x"}, "tensors": []},
    ], ids=["list", "empty-object", "string-layers"])
    def test_malformed_checkpoint_header_is_validation_error(self, workdir, tmp_path,
                                                             capsys, header):
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob)
        code = main(["eval-lp", "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(bad), "--out", str(tmp_path / "out"), *SMALL])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION

    def test_mistyped_override_names_the_key(self, tmp_path, capsys):
        code = main(["grad-check", "--out", str(tmp_path / "g"),
                     "--gradcheck.trials", "abc"])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "gradcheck.trials" in parsed["error"]

    def test_mistyped_config_file_section_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"theory": 5}))
        code = main(["theory", "--config", str(config), "--out", str(tmp_path / "t")])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "'theory'" in parsed["error"]


    def test_graph_not_utf8_is_validation_error(self, tmp_path, capsys):
        graph = tmp_path / "latin1.tsv"
        graph.write_bytes(b"2\n0\t-\tcaf\xe9\n1\t-\tb\n0\t1\n")
        code = main(["sample", "--graph", str(graph), "--out", str(tmp_path / "s")])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "UTF-8" in parsed["error"]

    @pytest.mark.parametrize("tail", [
        b"5\n", b'{"summary": "caf\xe9"}\n',
        b'{"domain": "academic", "graph_id": "cligraph", "sampler_seed": 0, "seed_id": 30, '
        b'"summary": "lone \\ud800 half", "token_count": 3}\n',
        b'{"domain": "academic", "graph_id": "cligraph", "sampler_seed": 77, "seed_id": true, '
        b'"summary": "a b", "token_count": 2}\n',
        b'{"domain": "academic", "graph_id": "cligraph", "sampler_seed": 0, '
        b'"seed_id": 1000000000000000000000, "summary": "a b", "token_count": 2}\n',
    ], ids=["number-line", "not-utf8", "lone-surrogate", "bool-seed", "huge-seed"])
    def test_malformed_pairs_are_validation_errors(self, workdir, corpus, tmp_path,
                                                   capsys, tail):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_bytes(corpus.read_bytes() + tail)
        code = main(["pretrain", "--graph", str(workdir / "graph.tsv"),
                     "--pairs", str(pairs), "--out", str(tmp_path / "p"), *SMALL])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION

    def test_negative_retries_is_validation_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["gen-corpus", "--graph", str(workdir / "graph.tsv"), "--out", str(out),
                     "--corpus.num_seeds", "3", "--corpus.retries", "-1", *SMALL])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "retries" in parsed["error"]
        assert not (out / "pairs.jsonl").exists()

    @pytest.mark.parametrize("command, option, value", [
        (command, option, value) for command in ("gen-corpus", "sample")
        for option, value in [("num_seeds", "-3"), ("num_seeds", "0"),
                              ("truncate_chars", "-1"), ("truncate_chars", "0"),
                              ("max_in_flight", "0"), ("max_in_flight", "-2")]
        if not (command == "sample" and option == "max_in_flight")])   # sample sends none
    def test_out_of_range_corpus_option_is_validation_error(self, workdir, tmp_path, capsys,
                                                            command, option, value):
        out = tmp_path / "corpus"
        code = main([command, "--graph", str(workdir / "graph.tsv"), "--out", str(out),
                     f"--corpus.{option}", value, *SMALL])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert option in parsed["error"]
        assert not (out / "pairs.jsonl").exists()
        assert not list(out.glob("subgraphs/*"))

    @pytest.mark.parametrize("line", [b"not json", b"[1,2]", b'{"sha256": "ab"}',
                                      b'{"sha256": "caf\xe9", "vector": [1.0]}'],
                             ids=["not-json", "list", "no-vector", "not-utf8"])
    def test_malformed_table_file_is_validation_error(self, workdir, corpus, tmp_path,
                                                      capsys, line):
        table = tmp_path / "table.jsonl"
        table.write_bytes(line + b"\n")
        code = main(["pretrain", "--graph", str(workdir / "graph.tsv"),
                     "--pairs", str(corpus), "--out", str(tmp_path / "p"), *SMALL,
                     "--text_encoder.impl", "table",
                     "--text_encoder.table_path", str(table)])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["error"].startswith("line 1: ") or "UTF-8" in parsed["error"]

    @pytest.mark.parametrize("command, key, value", [
        ("eval-lp", "adapt.link_test_fraction", "2.0"),
        ("eval-lp", "adapt.link_test_fraction", "-1"),
        ("eval-lp", "adapt.link_test_fraction", "0"),
        ("eval-lp", "adapt.runs", "0"),
        ("eval-nc", "adapt.test_fraction", "1.5"),
        ("eval-nc", "adapt.runs", "-2"),
    ])
    def test_bad_evaluation_split_is_validation_error(self, workdir, checkpoint, tmp_path,
                                                      capsys, command, key, value):
        out = tmp_path / "e"
        code = main([command, "--graph", str(workdir / "graph.tsv"),
                     "--checkpoint", str(checkpoint), "--labels", str(workdir / "labels.json"),
                     "--shots", "0", "--out", str(out), *SMALL, f"--{key}", value])
        assert code == EXIT_VALIDATION
        parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert parsed["code"] == EXIT_VALIDATION
        assert not (out / "report.csv").exists()


def run_isolated(script: str, *args):
    """Run ``script`` in a fresh interpreter on the package source; its last
    stdout line is JSON, returned decoded."""
    src = str(Path(tagsum.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], timeout=120,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().splitlines()[-1])


# Modules of the HTTP and TLS stack. Only an HttpLlmClient built without an
# injected session needs them.
NETWORK_MODULES = ("requests", "urllib3", "ssl", "http.client", "urllib.request")


class TestNetworkStackStaysOut:
    def test_offline_stages_load_no_network_module(self, tmp_path):
        script = f"""
import json, sys
from pathlib import Path
import tagsum
import tagsum.cli
from tagsum.graphs import save_graph
from tagsum.synthetic import make_synthetic_tag

root = Path(sys.argv[1])
save_graph(make_synthetic_tag(12, seed=0, graph_id="tiny"), root / "tiny.tsv")
for command in ("gen-corpus", "sample"):
    code = tagsum.cli.main([command, "--graph", str(root / "tiny.tsv"),
                            "--out", str(root / command), "--corpus.num_seeds", "4"])
    assert code == 0, (command, code)
print(json.dumps([name for name in {NETWORK_MODULES!r} if name in sys.modules]))
"""
        assert run_isolated(script, tmp_path) == []
        assert len((tmp_path / "gen-corpus" / "pairs.jsonl").read_text().splitlines()) == 4
        assert len(list((tmp_path / "sample" / "subgraphs").glob("*.graphml"))) == 4



class TestUnusedStdlibStaysOut:
    """The thread pool loads only for concurrent requests, and the XML tree
    parser only where GraphML is read."""

    def test_training_and_scoring_load_neither(self, tmp_path):
        script = f"""
import json, sys
from pathlib import Path
import tagsum.cli
from tagsum.corpus import write_pairs
from tagsum.graphs import save_graph
from tagsum.synthetic import make_synthetic_pairs, make_synthetic_tag

root = Path(sys.argv[1])
graph = make_synthetic_tag(16, seed=0, graph_id="tiny")
save_graph(graph, root / "tiny.tsv")
write_pairs(root / "pairs.jsonl", make_synthetic_pairs(graph, range(8)))
small = {SMALL!r}
code = tagsum.cli.main(["pretrain", "--graph", str(root / "tiny.tsv"),
                        "--pairs", str(root / "pairs.jsonl"), "--out", str(root / "train"),
                        "--pretrain.epochs", "1", *small])
assert code == 0, code
code = tagsum.cli.main(["eval-lp", "--graph", str(root / "tiny.tsv"),
                        "--checkpoint", str(root / "train" / "checkpoint.bin"),
                        "--out", str(root / "lp"), "--adapt.runs", "1", *small])
assert code == 0, code
print(json.dumps([name for name in ("concurrent.futures", "xml.etree.ElementTree")
                  if name in sys.modules]))
"""
        assert run_isolated(script, tmp_path) == []
        assert (tmp_path / "lp" / "report.csv").exists()

    def test_sequential_corpus_loads_no_thread_pool(self, tmp_path):
        script = """
import json, sys
from pathlib import Path
import tagsum.cli
from tagsum.graphs import save_graph
from tagsum.synthetic import make_synthetic_tag

root = Path(sys.argv[1])
save_graph(make_synthetic_tag(12, seed=0, graph_id="tiny"), root / "tiny.tsv")
code = tagsum.cli.main(["gen-corpus", "--graph", str(root / "tiny.tsv"), "--out",
                        str(root / "corpus"), "--corpus.num_seeds", "4",
                        "--corpus.max_in_flight", "1"])
assert code == 0, code
print(json.dumps("concurrent.futures" in sys.modules))
"""
        assert run_isolated(script, tmp_path) is False
        assert len((tmp_path / "corpus" / "pairs.jsonl").read_text().splitlines()) == 4

# A theory run that takes a fraction of a second.
QUICK_THEORY = ["theory", "--theory.samples", "10000", "--theory.grid_samples", "10000"]
# Two values of each shorthand's key.
ALIAS_VALUES = {"out": ("first", "second"), "graph": ("first.tsv", "second.tsv"),
                "pairs": ("first.jsonl", "second.jsonl"), "checkpoint": ("first.bin", "second.bin"),
                "labels": ("first.json", "second.json"), "zeta": ("0.5", "0.25"),
                "shots": ("3", "4")}


class TestShorthands:
    """Each shorthand flag is an alias of one dotted config key: one parse,
    one type check and the same in-order precedence."""

    @staticmethod
    def run_theory(tmp_path, flags):
        """The resolved config of a quick theory run, read from the out_dir
        the run resolved to (relative values under ``tmp_path``)."""
        flags = [str(tmp_path / v) if v in ALIAS_VALUES["out"] else v for v in flags]
        assert main([*QUICK_THEORY, "--out", str(tmp_path / "first"), *flags]) == EXIT_OK
        written = [d for d in ("first", "second") if (tmp_path / d).exists()]
        assert len(written) == 1
        return (tmp_path / written[0] / "resolved_config.json").read_bytes()

    def test_every_alias_names_a_config_key(self):
        assert sorted(ALIASES) == sorted(ALIAS_VALUES)
        assert all(key in CONFIG_KEYS and not isinstance(CONFIG_KEYS[key], dict)
                   for key in ALIASES.values())

    @pytest.mark.parametrize("alias", sorted(ALIAS_VALUES))
    def test_shorthand_writes_the_dotted_keys_config(self, tmp_path, alias):
        value = ALIAS_VALUES[alias][1]
        shorthand = self.run_theory(tmp_path / "a", [f"--{alias}", value])
        dotted = self.run_theory(tmp_path / "b", [f"--{ALIASES[alias]}", value])
        assert shorthand.replace(b"/a/", b"/b/") == dotted

    @pytest.mark.parametrize("dotted_last", [False, True])
    @pytest.mark.parametrize("alias", sorted(ALIAS_VALUES))
    def test_later_flag_wins(self, tmp_path, alias, dotted_last):
        first, second = ALIAS_VALUES[alias]
        flags = ([f"--{alias}", first, f"--{ALIASES[alias]}", second] if dotted_last else
                 [f"--{ALIASES[alias]}", first, f"--{alias}", second])
        config = json.loads(self.run_theory(tmp_path, flags))
        for key in ALIASES[alias].split("."):
            config = config[key]
        expected = str(tmp_path / second) if alias == "out" else second
        assert config == (json.loads(expected) if alias in ("zeta", "shots") else expected)

    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "abc", "seed"), ("--shots", "1.5", "adapt.shots"),
        ("--zeta", "x", "theory.zeta")])
    def test_bad_shorthand_value_is_validation_error_naming_its_key(
            self, tmp_path, capsys, flag, value, key):
        code = main([*QUICK_THEORY, "--out", str(tmp_path / "out"), flag, value])
        assert code == EXIT_VALIDATION
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert repr(key) in error["error"]


class TestConfigTypes:
    def test_default_config_is_pinned(self):
        # The sampler, optimizer, perturbation and client defaults come from
        # the library configs' fields; the digest pins every default value.
        digest = hashlib.sha256(json.dumps(DEFAULT_CONFIG, sort_keys=True).encode()).hexdigest()
        assert digest == "623d66c2d071703d4482ff212b6a01162443d0302bbbc8b255be297d73d2cd8c"

    def test_int_accepted_for_float(self):
        merged = _merge(DEFAULT_CONFIG, {"optimizer": {"lr": 1}})
        assert merged["optimizer"]["lr"] == 1

    def test_every_unset_default_has_a_type(self):
        unset = [f"{section}.{key}" for section, values in DEFAULT_CONFIG.items()
                 if isinstance(values, dict)
                 for key, value in values.items() if value is None]
        assert sorted(unset) == sorted(UNSET_TYPES)

    def test_unset_default_takes_none_or_its_type(self):
        for value in (None, 12):
            assert _merge(DEFAULT_CONFIG, {"corpus": {"num_seeds": value}})[
                "corpus"]["num_seeds"] == value
        assert _merge(DEFAULT_CONFIG, {"paths": {"graph": "g.tsv"}})[
            "paths"]["graph"] == "g.tsv"
        for override in ({"corpus": {"num_seeds": "abc"}}, {"paths": {"graph": 5}}):
            with pytest.raises(ValidationError, match="num_seeds|paths.graph"):
                _merge(DEFAULT_CONFIG, override)

    @pytest.mark.parametrize("override, key", [
        ({"sampler": 3}, "sampler"),
        ({"encoder": {"layers": 2.5}}, "encoder.layers"),
        ({"encoder": {"layers": True}}, "encoder.layers"),
        ({"corpus": {"mock": 1}}, "corpus.mock"),
        ({"theory": {"t_grid": [0.0, "a"]}}, "theory.t_grid[1]"),
        ({"theory": {"classifier_grid": [[1.0, None]]}}, "theory.classifier_grid[0][1]"),
    ])
    def test_file_values_checked(self, override, key):
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            _merge(DEFAULT_CONFIG, override)

    def test_dotted_overrides_checked(self):
        config = _merge(DEFAULT_CONFIG, {})
        _apply_dotted(config, "pretrain.epsilon", "0")
        _apply_dotted(config, "corpus.model", "123")
        _apply_dotted(config, "paths.graph", "5")
        assert config["paths"]["graph"] == "5"
        _apply_dotted(config, "sampler", '{"node_budget": 4}')
        assert config["pretrain"]["epsilon"] == 0
        assert config["corpus"]["model"] == "123"
        assert config["sampler"]["node_budget"] == 4
        assert config["sampler"]["max_steps"] == 256
        for dotted, raw in (("gradcheck.trials", "abc"), ("sampler", "5"),
                            ("sampler", '{"node_budget": "x"}')):
            with pytest.raises(ValidationError, match="gradcheck.trials|sampler"):
                _apply_dotted(config, dotted, raw)


# --- main never raises: every drawn command line carries at least one fault ---

# Small valid settings per command, as (flag, value) units. A fault on the same
# flag replaces the unit.
BASE_UNITS = {
    "sample": [("--corpus.num_seeds", "3")],
    "gen-corpus": [("--corpus.num_seeds", "3")],
    "pretrain": [("--pretrain.epochs", "1"), ("--pretrain.batch_size", "6")],
    "eval-nc": [("--shots", "0"), ("--adapt.runs", "1")],
    "eval-lp": [("--adapt.runs", "1")],
    "tune": [("--shots", "1"), ("--adapt.runs", "1"), ("--adapt.tune_epochs", "2")],
    "theory": [("--theory.samples", "10000"), ("--theory.grid_samples", "10000")],
    "grad-check": [("--gradcheck.trials", "1")],
}
INPUT_FLAGS = {
    "sample": ["--graph"], "gen-corpus": ["--graph"], "pretrain": ["--graph", "--pairs"],
    "eval-nc": ["--checkpoint", "--graph", "--labels"],
    "eval-lp": ["--checkpoint", "--graph"],
    "tune": ["--checkpoint", "--graph", "--labels"],
    "theory": [], "grad-check": [],
}

# Out-of-range values, by the commands that read them.
_SAMPLER = [("--sampler.restart_prob", v) for v in ("0", "1", "-0.5", "NaN")] + [
    ("--sampler.node_budget", "0"), ("--sampler.max_steps", "2")]
_EVERY = [("--seed", "-1"), ("--corpus.domain", "nope")]
_CORPUS = [("--corpus.num_seeds", "0"), ("--corpus.truncate_chars", "0")]
_TUNING = [("--adapt.runs", "0"), ("--adapt.tune_epochs", "-1"), ("--adapt.tune_lr", "-1"),
           ("--adapt.tune_weight_decay", "-1"), ("--adapt.temperature", "0")]
OUT_OF_RANGE = {
    "sample": _EVERY + _SAMPLER + _CORPUS,
    "gen-corpus": _EVERY + _SAMPLER + _CORPUS + [
        ("--corpus.retries", "-1"), ("--corpus.max_in_flight", "0")],
    "pretrain": _EVERY + _SAMPLER + [
        ("--encoder.layers", "0"), ("--encoder.hidden", "0"), ("--encoder.heads", "3"),
        ("--encoder.positional_dim", "0"), ("--encoder.text_dim", "0"),
        ("--encoder.preset", "nope"), ("--encoder.heads", "0"),
        ("--text_encoder.impl", "nope"), ("--text_encoder.impl", "table"),
        ("--pretrain.epochs", "-1"), ("--pretrain.batch_size", "0"),
        ("--pretrain.temperature", "0"), ("--pretrain.epsilon", "-1"),
        ("--pretrain.epsilon", "NaN"), ("--pretrain.norm_p", "3"),
        ("--pretrain.inner_steps", "0"), ("--pretrain.checkpoint_every", "-1"),
        ("--optimizer.lr", "-1"), ("--optimizer.lr", "NaN"), ("--optimizer.weight_decay", "-1")],
    "eval-nc": _EVERY + _SAMPLER + [
        ("--adapt.test_fraction", "0"), ("--adapt.test_fraction", "1.5"),
        ("--adapt.runs", "0"), ("--shots", "2"), ("--text_encoder.impl", "nope")],
    "eval-lp": _EVERY + _SAMPLER + [
        ("--adapt.link_test_fraction", "0"), ("--adapt.link_test_fraction", "1.5"),
        ("--adapt.runs", "0")],
    "tune": _EVERY + _SAMPLER + _TUNING + [("--shots", "0"), ("--shots", "-1")],
    "theory": _EVERY + [
        ("--zeta", "0"), ("--zeta", "NaN"), ("--theory.zeta", "-1"),
        ("--theory.samples", "0"), ("--theory.grid_samples", "1"),
        ("--theory.t_grid", "[]"), ("--theory.t_grid", "[-1]"),
        ("--theory.classifier_grid", "[]"), ("--theory.classifier_grid", "[[0, 0]]"),
        ("--theory.classifier_grid", "[[1]]"), ("--theory.classifier_grid", "[[1, 0, 2]]"),
        ("--theory.scales", "[]"), ("--theory.truncation_radius", "0")],
    "grad-check": _EVERY + [
        ("--gradcheck.trials", "-1"), ("--gradcheck.step", "0"), ("--gradcheck.step", "-1"),
        ("--gradcheck.tolerance", "0"), ("--gradcheck.tolerance", "-1")],
}
# Out-of-range values added later. They come last among the parameters of
# test_each_out_of_range_value_is_rejected, so the ids of the ones above
# keep their numbers.
LATER_FAULTS = [("pretrain", ("--pretrain.epochs", "0")), ("theory", ("--theory.scales", "[1.0]")),
                # One step over the 24 corpus pairs, so that no later step's
                # loss catches a non-finite update; at 1e200 the L-inf
                # adversary overflows the features.
                ("pretrain", ("--pretrain.epsilon", "Infinity", "--pretrain.batch_size", "24")),
                ("pretrain", ("--pretrain.epsilon", "1e200", "--pretrain.norm_p", "Infinity",
                              "--pretrain.batch_size", "24")),
                # An update that overflows the parameters, again in one step.
                ("pretrain", ("--optimizer.lr", "Infinity", "--pretrain.batch_size", "24")),
                ("pretrain", ("--optimizer.weight_decay", "Infinity",
                              "--pretrain.batch_size", "24")),
                ("pretrain", ("--optimizer.lr", "1e10", "--optimizer.weight_decay", "1e308",
                              "--pretrain.batch_size", "24")),
                ("theory", ("--zeta", "Infinity")), ("theory", ("--theory.t_grid", "[Infinity]")),
                ("theory", ("--theory.scales", "[0,Infinity]")),
                ("theory", ("--theory.classifier_grid", "[[Infinity,0]]")),
                ("grad-check", ("--gradcheck.step", "Infinity")),
                ("grad-check", ("--gradcheck.tolerance", "Infinity")),
                # At epsilon = 0 the adversary's settings are still checked.
                ("pretrain", ("--pretrain.epsilon", "0", "--pretrain.inner_steps", "0")),
                ("pretrain", ("--pretrain.epsilon", "0", "--pretrain.norm_p", "3"))]
for _command, _fault in LATER_FAULTS:
    OUT_OF_RANGE[_command].append(_fault)

# Values of the wrong JSON type, by the type a key takes. null is wrong too
# where the default is set.
WRONG_VALUES = {
    bool: [1, "x", []], int: [1.5, True, "x", [1], {}], float: [True, "x", [1], {}],
    str: [5, True, [], {}], list: [1, "x", {}, ["a"]], dict: [1, "x", [1]],
}


def _config_keys(node=DEFAULT_CONFIG, prefix=""):
    """(dotted key, default) for every section and leaf of the config."""
    for key, value in node.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _config_keys(value, f"{prefix}{key}.")


CONFIG_KEYS = dict(_config_keys())
LONG_OPTIONS = [s for s in build_parser()._option_string_actions if s.startswith("--")]


def _wrong_value(key):
    default = CONFIG_KEYS[key]
    return st.sampled_from(WRONG_VALUES[_expected_type(key, default)]
                           + ([None] if default is not None else []))


def _nested(dotted, value):
    """The config-file form of a dotted key: ``a.b`` -> ``{"a": {"b": value}}``."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


# An override key that names no config key and abbreviates no option.
UNKNOWN_KEYS = st.from_regex(r"[a-z_]{1,8}(\.[a-z_]{1,8}){0,2}", fullmatch=True).filter(
    lambda k: k not in CONFIG_KEYS and not any(o.startswith("--" + k) for o in LONG_OPTIONS))
SAFE_TOKENS = st.from_regex(r"[a-z0-9.]{0,6}", fullmatch=True)
# Leaf keys whose argv value is parsed as JSON, so that a token can have the wrong type.
TYPED_LEAVES = sorted(k for k, v in CONFIG_KEYS.items()
                      if not isinstance(v, dict) and _expected_type(k, v) is not str)


@st.composite
def bad_file(draw, root, name):
    """A path that is missing, a directory, or a file no loader accepts."""
    kind = draw(st.sampled_from(["missing", "directory", "empty", "not utf-8"]))
    path = root / name
    if kind == "missing":
        return str(root / "no_such_file")
    if kind == "directory":
        return str(root)
    path.write_bytes(b"" if kind == "empty" else b"\xff" + draw(st.binary(max_size=40)))
    return str(path)


@st.composite
def bad_config(draw, root, name):
    """A --config file that is unreadable, not JSON, not an object, or holds
    an unknown key or a value of the wrong type."""
    kind = draw(st.sampled_from(["file", "truncated", "not an object", "unknown key",
                                 "wrong type"]))
    if kind == "file":
        return draw(bad_file(root, name))
    if kind == "truncated":
        text = json.dumps(draw(st.dictionaries(st.sampled_from(sorted(DEFAULT_CONFIG)),
                                               st.just({}))))[:-1]
    elif kind == "not an object":
        text = json.dumps(draw(st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=5),
            lambda inner: st.lists(inner, max_size=3), max_leaves=5)))
    elif kind == "unknown key":
        text = json.dumps(_nested(draw(UNKNOWN_KEYS), 1))
    else:
        key = draw(st.sampled_from(sorted(CONFIG_KEYS)))
        text = json.dumps(_nested(key, draw(_wrong_value(key))))
    path = root / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@st.composite
def faulty_argv(draw, command, root, valid_inputs):
    """argv for ``command`` with small valid settings and one to three faults.
    Most examples carry one fault, so that the checks inside the stages run,
    not only the first check of the command line."""
    faults = []
    kinds = ["unknown flag", "wrong type", "out of range", "out of range", "bad config",
             "out is a file"]
    if INPUT_FLAGS[command]:
        kinds.append("bad input")
    count = draw(st.sampled_from([1, 1, 1, 2, 3]))
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds), min_size=count,
                                           max_size=count))):
        if kind == "unknown flag":
            form = draw(st.sampled_from(["with value", "alone", "positional"]))
            if form == "positional":
                faults.append((draw(st.sampled_from(["-x", "stray"])),))
            else:
                flag = "--" + draw(UNKNOWN_KEYS)
                faults.append((flag, draw(SAFE_TOKENS)) if form == "with value" else (flag,))
        elif kind == "wrong type":
            key = draw(st.sampled_from(TYPED_LEAVES + ["seed", "shots", "zeta"]))
            if key in ("seed", "shots", "zeta"):       # argparse shorthands
                faults.append(("--" + key, draw(st.sampled_from(["abc", "[1]", "1.5x"]))))
            else:
                faults.append(("--" + key, json.dumps(draw(_wrong_value(key)))))
        elif kind == "out of range":
            faults.append(draw(st.sampled_from(OUT_OF_RANGE[command])))
        elif kind == "bad config":
            faults.append(("--config", draw(bad_config(root, f"config{i}.json"))))
        elif kind == "out is a file":
            faults.append(("--out", valid_inputs["--graph"]))
        else:
            flag = draw(st.sampled_from(INPUT_FLAGS[command]))
            faults.append((flag, draw(bad_file(root, f"input{i}"))))
    units = _valid_units(command, root, valid_inputs, faults)
    if all(unit[0] != "--config" for unit in faults) and draw(st.booleans()):
        # A valid config file: some sections, each holding a few of its defaults.
        sections = draw(st.lists(st.sampled_from(sorted(k for k, v in DEFAULT_CONFIG.items()
                                                        if isinstance(v, dict))),
                                 max_size=3, unique=True))
        (root / "valid.json").write_text(json.dumps(
            {s: dict(list(DEFAULT_CONFIG[s].items())[:2]) for s in sections}), encoding="utf-8")
        units.append(("--config", str(root / "valid.json")))
    ordered = draw(st.permutations(units + faults))
    return [command, *(token for unit in ordered for token in unit)]


def _valid_units(command, root, valid_inputs, faults):
    """The valid (flag, value) units of ``command`` that no fault replaces."""
    flagged = {unit[0] for unit in faults}
    units = [("--out", str(root / "out")),
             *[(flag, valid_inputs[flag]) for flag in INPUT_FLAGS[command]],
             *zip(SMALL[::2], SMALL[1::2]), *BASE_UNITS[command]]
    return [unit for unit in units if unit[0] not in flagged]


def _assert_json_error(code, stderr):
    assert code in (EXIT_USAGE, EXIT_VALIDATION), (code, stderr)
    error = json.loads(stderr.strip().splitlines()[-1])
    assert error["code"] == code and error["error"]


class TestMainNeverRaises:
    @pytest.fixture(scope="class")
    def inputs(self, workdir, corpus, checkpoint):
        return {"--graph": str(workdir / "graph.tsv"), "--pairs": str(corpus),
                "--checkpoint": str(checkpoint), "--labels": str(workdir / "labels.json")}

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("faults")

    def test_covers_every_command(self):
        assert sorted(BASE_UNITS) == sorted(INPUT_FLAGS) == sorted(OUT_OF_RANGE) == sorted(COMMANDS)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_faulty_command_lines_exit_2_or_3_with_json(self, inputs, scratch, data):
        command = data.draw(st.sampled_from(sorted(BASE_UNITS)), label="command")
        argv = data.draw(faulty_argv(command, scratch, inputs), label="argv")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        _assert_json_error(code, err.getvalue())

    @pytest.mark.parametrize("command, fault", [
        (command, fault) for command, faults in OUT_OF_RANGE.items() for fault in faults
        if (command, fault) not in LATER_FAULTS] + LATER_FAULTS)
    def test_each_out_of_range_value_is_rejected(self, inputs, scratch, command, fault, capsys):
        units = _valid_units(command, scratch, inputs, [fault]) + [fault]
        code = main([command, *(token for unit in units for token in unit)])
        _assert_json_error(code, capsys.readouterr().err)

    @staticmethod
    def odd_content(case, inputs, root):
        """The units of an input that parses but holds odd content."""
        if case == "graph with no nodes":
            (root / "empty").mkdir(exist_ok=True)
            (root / "empty" / "graph.tsv").write_text("0\n", encoding="utf-8")
            return [("--graph", str(root / "empty" / "graph.tsv"))]
        if case == "seed outside its graph":
            records = [json.loads(line) for line in
                       Path(inputs["--pairs"]).read_text(encoding="utf-8").splitlines()]
            records[1]["seed_id"] = 40                 # the graph has nodes 0..39
            (root / "outside.jsonl").write_text(
                "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            return [("--pairs", str(root / "outside.jsonl"))]
        if case == "label asset lacks a class":
            asset = json.loads(Path(inputs["--labels"]).read_text(encoding="utf-8"))
            asset["classes"] = asset["classes"][:-1]
            (root / "short_labels.json").write_text(json.dumps(asset), encoding="utf-8")
            return [("--labels", str(root / "short_labels.json"))]
        # A table of every graph text, 16 wide; the checkpoint's text_dim is 8.
        texts = load_graph(inputs["--graph"]).raw_text
        TableTextEncoder.build(texts, HashTextEncoder(16).encode_texts(texts)).save(
            root / "wide.jsonl")
        return [("--text_encoder.impl", "table"),
                ("--text_encoder.table_path", str(root / "wide.jsonl"))]

    @pytest.mark.parametrize("command, case", [
        *((command, "graph with no nodes") for command in sorted(BASE_UNITS)
          if "--graph" in INPUT_FLAGS[command]),
        ("pretrain", "seed outside its graph"),
        ("eval-nc", "label asset lacks a class"), ("tune", "label asset lacks a class"),
        *((command, "checkpoint text_dim differs") for command in ("eval-nc", "eval-lp", "tune")),
    ])
    def test_odd_content_exits_2_or_3_with_json(self, inputs, scratch, command, case, capsys):
        faults = self.odd_content(case, inputs, scratch)
        units = _valid_units(command, scratch, inputs, faults) + faults
        code = main([command, *(token for unit in units for token in unit)])
        _assert_json_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", [("pretrain", "--pretrain.temperature"),
                                               ("tune", "--adapt.temperature")])
    def test_nan_temperature_is_rejected_before_the_first_step(
            self, inputs, scratch, command, flag, capsys, monkeypatch):
        def step(self):
            raise AssertionError("an optimizer step was taken")

        monkeypatch.setattr(AdamW, "step", step)
        fault = (flag, "NaN")
        units = _valid_units(command, scratch, inputs, [fault]) + [fault]
        code = main([command, *(token for unit in units for token in unit)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION, err
        assert json.loads(err.strip().splitlines()[-1])["error"] == (
            "temperature must be positive")
