"""Command-line surface: artifacts, exit codes, determinism."""

import json
import re
import struct

import pytest

from tagsum.adapt import save_label_prompt_asset
from tagsum.cli import (
    DEFAULT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, _apply_dotted,
    UNSET_TYPES, _merge, main,
)
from tagsum.encoder import CHECKPOINT_MAGIC
from tagsum.errors import ValidationError
from tagsum.graphs import TextAttributedGraph, save_graph
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_tag,
)

SMALL = ["--encoder.layers", "1", "--encoder.hidden", "8", "--encoder.heads", "2",
         "--encoder.positional_dim", "3", "--encoder.text_dim", "8",
         "--text_encoder.dim", "8",
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
               "--encoder.text_dim", "24", "--text_encoder.dim", "24",
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


class TestConfigTypes:
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
