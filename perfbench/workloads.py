"""The four benchmark workloads: inputs from a seed, one timed job, output checks.

Each workload is a closed loop with one caller: the harness calls ``setup``
once per set-up repetition, then ``job`` back to back until the run's time is
up. Every job on one state runs the same program calls on the same inputs, so
the figures listed in ``EXACT`` must repeat bit for bit from job to job; the
harness checks that. Why each workload exists is in README.md next to this
file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import math
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Program entry points are called through their modules so that a traced run,
# which swaps module attributes, records them.
from tagsum import adapt, corpus, textenc
from tagsum.adapt import build_label_prompts, make_few_shot_split
from tagsum.encoder import GraphEncoderConfig, ParamStore, encode_graph, encode_graph_tensor
from tagsum.graphml import ACADEMIC_SCHEMA
from tagsum.graphs import SamplerConfig, rwr_sample, with_positional_encodings
from tagsum.pretrain import OptimizerConfig, PerturbationState
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_pairs,
    make_synthetic_tag,
)
from tagsum.textenc import HashTextEncoder

# The package re-exports the function under the module's name.
pretraining = importlib.import_module("tagsum.pretrain")

# The acceptance toy configuration (tests/conftest.py).
TOY_ENCODER = GraphEncoderConfig(layers=2, hidden=32, heads=4, positional_dim=8, text_dim=24)
TOY_SAMPLER = SamplerConfig(node_budget=8, max_steps=64)
# The CLI's default sampler (tagsum.cli.DEFAULT_CONFIG["sampler"]).
CLI_SAMPLER = SamplerConfig(node_budget=16, max_steps=256)
# Inference cost does not depend on the weights, so eval workloads use a
# random-weight encoder from this fixed seed instead of training one.
WEIGHTS_SEED = 12345
EPSILON = 1e-2

SIZES = {
    "full": {
        "pretrain_nodes": 200, "pretrain_epochs": 2,
        "sparse_nodes": 1600, "intra_edge_prob": 0.022, "inter_edge_prob": 0.0005,
        "lp_test_fraction": 0.02, "nc_runs": 5,
        "tune_nodes": 90, "tune_epochs": 100,
        "corpus_seeds": 1600, "abstract_words": 150, "encode_check_nodes": 8,
    },
    # Seconds-long smoke runs of the same code paths.
    "tiny": {
        "pretrain_nodes": 24, "pretrain_epochs": 1,
        "sparse_nodes": 90, "intra_edge_prob": 0.2, "inter_edge_prob": 0.005,
        "lp_test_fraction": 0.1, "nc_runs": 1,
        "tune_nodes": 30, "tune_epochs": 3,
        "corpus_seeds": 30, "abstract_words": 150, "encode_check_nodes": 2,
    },
}


def sub_seed(seed: int, tag: str) -> int:
    """Independent, reproducible stream per input drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(1)[0])


@dataclass
class Job:
    """What one job did: wall time of its program calls, (items, seconds) per
    throughput figure, and result figures that must repeat exactly."""

    job_s: float
    rates: dict
    figures: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)

    def check(self, ok, message: str) -> None:
        if not ok:
            self.failed_checks.append(message)


def sparse_graph(size: dict, seed: int, graph_id: str = "sparse"):
    """The ~12-mean-degree three-class graph shared by three workloads."""
    return make_synthetic_tag(size["sparse_nodes"], seed=sub_seed(seed, "sparse"),
                              intra_edge_prob=size["intra_edge_prob"],
                              inter_edge_prob=size["inter_edge_prob"],
                              graph_id=graph_id)


class Workload:
    name = ""
    # Per-workload figure name -> unit; HEADLINE is reported as items_per_s.
    FIGURES: dict = {}
    HEADLINE = ""
    EXACT: tuple = ()

    def __init__(self, size: dict, work_dir: Path):
        self.size = size
        self.work_dir = work_dir

    def setup(self, seed: int):
        raise NotImplementedError

    def job(self, state, untraced) -> Job:
        raise NotImplementedError


class PretrainAdv(Workload):
    name = "pretrain-adv"
    FIGURES = {"pretrain_pairs_per_s": "pairs/s", "pretrain_final_loss": "loss"}
    HEADLINE = "pretrain_pairs_per_s"
    EXACT = ("pretrain_final_loss",)

    def setup(self, seed):
        encoder = HashTextEncoder(TOY_ENCODER.text_dim)
        n = self.size["pretrain_nodes"]
        graph = textenc.attach_features(
            make_synthetic_tag(n, seed=sub_seed(seed, "source"), graph_id="src"), encoder)
        pairs = make_synthetic_pairs(graph, range(n), sampler_seed=sub_seed(seed, "pairs"))
        return {"encoder": encoder, "graph": graph, "pairs": pairs,
                "train_seed": sub_seed(seed, "train")}

    def job(self, state, untraced):
        epochs = self.size["pretrain_epochs"]
        out_dir = self.work_dir / "pretrain"
        start = time.perf_counter()
        result = pretraining.pretrain(
            state["pairs"], {"src": state["graph"]}, state["encoder"], TOY_ENCODER,
            OptimizerConfig(lr=5e-3, weight_decay=1e-5),
            PerturbationState(epsilon=EPSILON, inner_steps=3),
            epochs=epochs, batch_size=16, seed=state["train_seed"], temperature=0.1,
            sampler_cfg=TOY_SAMPLER, out_dir=out_dir,
        )
        elapsed = time.perf_counter() - start
        losses = [row["loss"] for row in result.metrics]
        last = [row["loss"] for row in result.metrics if row["epoch"] == epochs - 1]
        job = Job(elapsed, {"pretrain_pairs_per_s": (len(state["pairs"]) * epochs, elapsed)},
                  {"pretrain_final_loss": float(np.mean(last))})
        job.check(all(math.isfinite(v) for v in losses), "pretrain: non-finite loss")
        worst = max(float(np.max(n)) for n in result.delta_norm_trace)
        job.check(worst <= EPSILON * (1 + 1e-12),
                  f"pretrain: delta block norm {worst!r} exceeds epsilon")
        job.check(result.text_encoder_frozen, "pretrain: text encoder changed")
        job.check((out_dir / "checkpoint.bin").is_file()
                  and (out_dir / "metrics.csv").is_file(),
                  "pretrain: checkpoint or metrics.csv missing")
        shutil.rmtree(out_dir)
        return job


@contextlib.contextmanager
def captured_auc():
    """Record the scores handed to ``adapt.auc`` so the scored-pair count can
    be checked; one call per evaluation run, so the cost is nil."""
    calls = []
    original = adapt.auc

    def recording_auc(scores, truth):
        calls.append((len(scores), int(np.sum(truth))))
        return original(scores, truth)

    adapt.auc = recording_auc
    try:
        yield calls
    finally:
        adapt.auc = original


class LpSparse(Workload):
    name = "lp-sparse"
    FIGURES = {"lp_pairs_per_s": "pairs/s", "lp_auc": "ratio"}
    HEADLINE = "lp_pairs_per_s"
    EXACT = ("lp_auc",)

    def setup(self, seed):
        encoder = HashTextEncoder(TOY_ENCODER.text_dim)
        graph = textenc.attach_features(sparse_graph(self.size, seed), encoder)
        return {"graph": graph,
                "store": ParamStore.initialize(TOY_ENCODER, seed=WEIGHTS_SEED),
                "sampler": dataclasses.replace(CLI_SAMPLER,
                                               rng_seed=sub_seed(seed, "sampler")),
                "eval_seed": sub_seed(seed, "eval") & 0xFFFF}

    def job(self, state, untraced):
        fraction = self.size["lp_test_fraction"]
        with captured_auc() as calls:
            start = time.perf_counter()
            result = adapt.evaluate_link_prediction(
                state["store"], TOY_ENCODER, state["graph"], state["sampler"],
                test_fraction=fraction, num_runs=1, base_seed=state["eval_seed"])
            elapsed = time.perf_counter() - start
        scored, positives = calls[0]
        job = Job(elapsed, {"lp_pairs_per_s": (scored, elapsed)}, {"lp_auc": result.mean})
        job.check(0.0 <= result.mean <= 1.0, f"lp: AUC {result.mean!r} outside [0, 1]")
        job.check(scored == 2 * positives,
                  f"lp: {scored} scored pairs for {positives} positives")
        expected = max(1, int(round(fraction * len(state["graph"].edges))))
        job.check(positives == expected, f"lp: {positives} positives, expected {expected}")
        return job


class Adapt(Workload):
    name = "adapt"
    FIGURES = {"nc_nodes_per_s": "nodes/s", "nc_accuracy": "ratio",
               "tune_epochs_per_s": "epochs/s"}
    HEADLINE = "nc_nodes_per_s"
    EXACT = ("nc_accuracy",)

    def setup(self, seed):
        encoder = HashTextEncoder(TOY_ENCODER.text_dim)
        graph = textenc.attach_features(sparse_graph(self.size, seed), encoder)
        target = textenc.attach_features(
            make_synthetic_tag(self.size["tune_nodes"], seed=sub_seed(seed, "target"),
                               graph_id="tgt"), encoder)
        return {"encoder": encoder, "graph": graph, "target": target,
                "labels": build_label_prompts(CLASS_KEYWORDS, CLASS_DESCRIPTIONS,
                                              LABEL_TEMPLATE, encoder),
                "store": ParamStore.initialize(TOY_ENCODER, seed=WEIGHTS_SEED),
                "sampler": dataclasses.replace(CLI_SAMPLER,
                                               rng_seed=sub_seed(seed, "sampler")),
                "split": make_few_shot_split(target, shots=5,
                                             seed=sub_seed(seed, "split") & 0xFFFF),
                "eval_seed": sub_seed(seed, "eval") & 0xFFFF}

    def job(self, state, untraced):
        graph, store, runs = state["graph"], state["store"], self.size["nc_runs"]
        epochs = self.size["tune_epochs"]
        start = time.perf_counter()
        nc = adapt.evaluate_node_classification(
            store, TOY_ENCODER, graph, state["labels"], state["sampler"],
            test_fraction=0.2, num_runs=runs, base_seed=state["eval_seed"])
        middle = time.perf_counter()
        tuned = adapt.prompt_tune(
            store, TOY_ENCODER, state["target"], state["split"], state["labels"],
            epochs=epochs, lr=1e-4, weight_decay=1e-5, temperature=0.1,
            sampler_cfg=TOY_SAMPLER, text_encoder=state["encoder"])
        end = time.perf_counter()
        labeled = int(np.sum(graph.labels >= 0))
        nodes = runs * max(1, int(round(0.2 * labeled)))
        job = Job(end - start, {"nc_nodes_per_s": (nodes, middle - start),
                                "tune_epochs_per_s": (epochs, end - middle)},
                  {"nc_accuracy": nc.mean})
        for value in (nc.mean, tuned.zero_shot_accuracy, tuned.tuned_accuracy):
            job.check(0.0 <= value <= 1.0, f"adapt: accuracy {value!r} outside [0, 1]")
        job.check(tuned.towers_frozen, "adapt: prompt tuning changed a tower")
        job.check(all(math.isfinite(v) for v in tuned.losses), "adapt: non-finite tune loss")
        with untraced():
            worst = self._encode_paths_gap(state)
        job.check(worst <= 1e-12, f"adapt: encode_graph differs from the tape by {worst!r}")
        return job

    def _encode_paths_gap(self, state) -> float:
        graph = state["graph"]
        rng = np.random.default_rng(state["eval_seed"])
        nodes = rng.choice(graph.num_nodes, size=self.size["encode_check_nodes"],
                           replace=False)
        worst = 0.0
        for node in nodes:
            sub = with_positional_encodings(
                rwr_sample(graph, int(node), state["sampler"]), TOY_ENCODER.positional_dim)
            fast = encode_graph(state["store"], TOY_ENCODER, sub).vector
            tape, _ = encode_graph_tensor(state["store"], TOY_ENCODER, sub)
            worst = max(worst, float(np.max(np.abs(fast - tape.data[0]))))
        return worst


class FlakyClient:
    """Wraps a summary client and fails the first attempt of a fixed ~10% of
    prompts, chosen by prompt hash, so the caller's retry path runs."""

    THRESHOLD = int(0.1 * 2 ** 32)

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.injected = 0
        self.retried = 0
        self._pending: set[bytes] = set()   # failed once, not yet retried
        self._seen: set[bytes] = set()

    def complete(self, prompt: str) -> str:
        self.calls += 1
        key = hashlib.sha256(prompt.encode("utf-8")).digest()
        if key in self._pending:
            self._pending.discard(key)
            self.retried += 1
        elif key not in self._seen:
            self._seen.add(key)
            if int.from_bytes(key[:4], "little") < self.THRESHOLD:
                self._pending.add(key)
                self.injected += 1
                raise ConnectionError("injected failure")
        return self.inner.complete(prompt)


# Abstract vocabulary: the markup characters make XML escaping do work.
_WORDS = ("graph", "summary", "model", "node", "edge", "a&b", "x<y", "y>x", "<tag>",
          "R&D", "results", "method", "dataset", "transformer", "walk", "restart",
          "encoding", "contrastive", "robust", "shift", "domain", "text", "attention")


class CorpusMock(Workload):
    name = "corpus-mock"
    FIGURES = {"corpus_pairs_per_s": "pairs/s"}
    HEADLINE = "corpus_pairs_per_s"

    def setup(self, seed):
        topology = sparse_graph(self.size, seed, graph_id="corpus")
        rng = np.random.default_rng(sub_seed(seed, "texts"))
        words = np.array(_WORDS)[rng.integers(len(_WORDS), size=(
            topology.num_nodes, self.size["abstract_words"]))]
        texts = tuple(f"Paper {i} on {row[0]} & {row[1]}\n" + " ".join(row)
                      for i, row in enumerate(words))
        graph = dataclasses.replace(topology, raw_text=texts, labels=None, class_names=None)
        return {"graph": graph,
                "sampler": dataclasses.replace(CLI_SAMPLER,
                                               rng_seed=sub_seed(seed, "sampler"))}

    def job(self, state, untraced):
        graph, seeds = state["graph"], range(self.size["corpus_seeds"])
        sink = self.work_dir / "pairs.jsonl"
        client = FlakyClient(corpus.MockLlmClient())

        def run():
            return corpus.generate_pairs(graph, state["sampler"], ACADEMIC_SCHEMA, "academic",
                                  client, sink, seeds=seeds, retries=2,
                                  truncate_chars=500, max_in_flight=1,
                                  failure_manifest_path=self.work_dir / "failures.jsonl")

        start = time.perf_counter()
        report = run()
        middle = time.perf_counter()
        calls = client.calls
        resumed = run()
        back = corpus.read_pairs(sink)
        end = time.perf_counter()
        job = Job(end - start, {"corpus_pairs_per_s": (len(report.written), middle - start)},
                  counts={"corpus.client.retries": client.retried,
                          "corpus.client.failures": len(report.failures)})
        job.check(len(report.written) == len(seeds) and not report.failures,
                  f"corpus: {len(report.written)} written, {len(report.failures)} failed "
                  f"of {len(seeds)} seeds")
        job.check(client.retried == client.injected and calls == len(seeds) + client.injected,
                  f"corpus: {client.retried} retries for {client.injected} injected failures")
        job.check(back == report.written, "corpus: read_pairs does not round-trip the sink")
        job.check(resumed.skipped_existing == len(seeds) and not resumed.written
                  and client.calls == calls, "corpus: resume pass did not skip every seed")
        sink.unlink()
        return job


WORKLOADS = {cls.name: cls for cls in (PretrainAdv, LpSparse, Adapt, CorpusMock)}
