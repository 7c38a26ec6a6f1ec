"""Artifacts are replaced atomically: a write that fails midway leaves the
previous file as it was and no temp file behind."""

import contextlib
import json
import resource
import signal

import numpy as np
import pytest

from tagsum.adapt import PromptVector, save_label_prompt_asset
from tagsum.atomic import replacing, write_csv
from tagsum.encoder import GraphEncoderConfig, ParamStore, save_checkpoint
from tagsum.graphs import TextAttributedGraph, save_graph
from tagsum.pretrain import METRICS_COLUMNS
from tagsum.textenc import TableTextEncoder

CFG = GraphEncoderConfig(layers=1, hidden=8, heads=2, positional_dim=3, text_dim=6)


def assert_untouched(path, before):
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


@contextlib.contextmanager
def file_size_limit(limit):
    """This process's writes past ``limit`` bytes of a file fail with EFBIG,
    as on a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    previous = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, previous)


class TestReplacing:
    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("old\n")
        with replacing(path) as temp:
            temp.write_text("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_failure_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}\n")
        with pytest.raises(RuntimeError):
            with replacing(path) as temp, open(temp, "w") as handle:
                handle.write("{\"inputs\":")
                raise RuntimeError("disk full")
        assert_untouched(path, b"{}\n")

    def test_failure_before_any_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "resolved_config.json"
        with pytest.raises(KeyboardInterrupt):
            with replacing(path):
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []


class TestArtifactWriters:
    def test_checkpoint_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "checkpoint.bin"
        store = ParamStore.initialize(CFG, seed=0)
        save_checkpoint(path, store, CFG, {"epoch": 1})
        before = path.read_bytes()
        # The limit falls in the last tensor's data, so the header and most
        # of the buffer are already out when the write fails.
        with pytest.raises(OSError), file_size_limit(len(before) - 8):
            save_checkpoint(path, store, CFG, {"epoch": 2})
        assert_untouched(path, before)

    def test_metrics_csv_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "metrics.csv"
        row = {"step": 0, "epoch": 0, "loss": 1.5, "alignment": 0.1, "uniformity": -1.0,
               "delta_norm_mean": 0.0, "lr": 1e-3}
        write_csv(path, METRICS_COLUMNS, [row, {**row, "step": 1}])
        before = path.read_bytes()
        with pytest.raises(KeyError):
            write_csv(path, METRICS_COLUMNS, [row, {"step": 1}])
        assert_untouched(path, before)

    def test_prompt_vector_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "prompt_seed0.json"
        PromptVector(np.array([0.5, -1.0])).save(path)
        before = path.read_bytes()
        assert before == (json.dumps({"values": [0.5, -1.0]}) + "\n").encode()
        longer = PromptVector(np.linspace(-1.0, 1.0, 24))
        with pytest.raises(OSError), file_size_limit(64):
            longer.save(path)
        assert_untouched(path, before)

    def test_label_asset_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "labels.json"
        save_label_prompt_asset(path, "{name}", ["a", "b"], ["first", "second"])
        before = path.read_bytes()
        with pytest.raises(OSError), file_size_limit(64):
            save_label_prompt_asset(path, "{name}: {description}", ["a", "b", "c"],
                                    ["first class", "second class", "third class"])
        assert_untouched(path, before)

    def test_graph_file_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "graph.tsv"
        save_graph(TextAttributedGraph.from_edges(2, [(0, 1)], ["a", "b"]), path)
        before = path.read_bytes()
        longer = TextAttributedGraph.from_edges(3, [(0, 1), (1, 2)], ["a longer text"] * 3)
        with pytest.raises(OSError), file_size_limit(len(before) + 8):
            save_graph(longer, path)
        assert_untouched(path, before)

    def test_embedding_table_failing_midway_keeps_the_previous_one(self, tmp_path):
        path = tmp_path / "table.jsonl"
        TableTextEncoder.build(["a"], [[1.0, 0.0]]).save(path)
        before = path.read_bytes()
        # Each record is about as long as the old file, so the second one fails.
        bigger = TableTextEncoder.build([f"t{i}" for i in range(4)], np.eye(4))
        with pytest.raises(OSError), file_size_limit(len(before) + 8):
            bigger.save(path)
        assert_untouched(path, before)
