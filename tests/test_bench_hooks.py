"""The benchmark's hooks into the package still resolve.

``perfbench/tracing.py`` wraps package functions by module and name, and
``perfbench/workloads.py`` imports entry points directly. Renaming or
deleting one of them breaks only a traced benchmark run; these tests make it
fail here too. A traced toy pretraining run checks that the tracer's
observers still read the arguments they expect (``len()`` of
``inner_maximize``'s batch), and a traced toy prompt tuning run that the
supervised loss, ``Tensor.backward`` and ``Tensor.__init__`` are still
reached under the names the tracer wraps.
"""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

from tagsum.adapt import build_label_prompts, make_few_shot_split
from tagsum.encoder import GraphEncoderConfig, ParamStore
from tagsum.graphs import SamplerConfig
from tagsum.pretrain import OptimizerConfig, PerturbationState
from tagsum.synthetic import (
    CLASS_DESCRIPTIONS,
    CLASS_KEYWORDS,
    LABEL_TEMPLATE,
    make_synthetic_pairs,
    make_synthetic_tag,
)
from tagsum.textenc import HashTextEncoder, attach_features

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestTracerTargets:
    def test_every_span_and_timed_op_resolves(self):
        tracing = load_perfbench_module("tracing")
        for name, (module_name, attr) in tracing.SPAN_FUNCTIONS.items():
            assert callable(getattr(importlib.import_module(module_name), attr, None)), name
        for name, (module_name, cls, attr) in tracing.SPAN_METHODS.items():
            owner = getattr(importlib.import_module(module_name), cls)
            assert callable(owner.__dict__.get(attr)), name
        autodiff = importlib.import_module("tagsum.autodiff")
        for op in tracing.TIMED_OPS:
            assert callable(getattr(autodiff, op, None)), op
        assert "__init__" in autodiff.Tensor.__dict__

    def test_inner_loop_keeps_what_the_observer_reads(self):
        # Tracer._observe_inner reads inner_maximize's batch and perturbation
        # by position and four fields of its result.
        pretraining = importlib.import_module("tagsum.pretrain")
        parameters = list(inspect.signature(pretraining.inner_maximize).parameters.values())
        assert [p.name for p in parameters] == ["store", "config", "batch", "summary_embs",
                                                "pert", "temperature"]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)
        fields = {f.name for f in dataclasses.fields(pretraining.InnerLoopResult)}
        assert {"first_loss", "final_loss", "skipped_zero_grad_steps",
                "max_block_norm"} <= fields

    def test_neighbors_is_a_cached_property(self):
        graphs = importlib.import_module("tagsum.graphs")
        neighbors = graphs.TextAttributedGraph.__dict__.get("neighbors")
        assert isinstance(neighbors, functools.cached_property)


class TestWorkloads:
    def test_imports_cleanly(self):
        workloads = load_perfbench_module("workloads")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}


class TestTracedPretrain:
    def test_records_the_pretraining_spans_and_ascent_attempts(self):
        tracing = load_perfbench_module("tracing")
        pretraining = importlib.import_module("tagsum.pretrain")
        encoder = HashTextEncoder(dim=6)
        graph = attach_features(make_synthetic_tag(24, seed=1, graph_id="src"), encoder)
        pairs = make_synthetic_pairs(graph, range(12))
        tracer = tracing.Tracer()
        with tracer.installed():
            pretraining.pretrain(
                pairs, {"src": graph}, encoder,
                GraphEncoderConfig(layers=1, hidden=8, heads=2, positional_dim=3, text_dim=6),
                OptimizerConfig(lr=1e-3), PerturbationState(epsilon=1e-2, inner_steps=2),
                epochs=1, batch_size=4, seed=0,
                sampler_cfg=SamplerConfig(node_budget=5, max_steps=40))
        recorded = {span[0] for span in tracer.spans}
        assert {"pretrain.pretrain", "pretrain.materialize_subgraphs",
                "pretrain.inner_maximize"} <= recorded
        assert tracer.totals["pretrain.ascent.attempts"] > 0


class TestTracedPromptTune:
    def test_records_the_loss_and_backward_of_every_epoch(self):
        tracing = load_perfbench_module("tracing")
        adaptation = importlib.import_module("tagsum.adapt")
        encoder = HashTextEncoder(dim=6)
        graph = attach_features(make_synthetic_tag(30, seed=1, graph_id="tgt"), encoder)
        config = GraphEncoderConfig(layers=1, hidden=8, heads=2, positional_dim=3, text_dim=6)
        labels = build_label_prompts(CLASS_KEYWORDS, CLASS_DESCRIPTIONS, LABEL_TEMPLATE, encoder)
        tracer = tracing.Tracer()
        with tracer.installed():
            result = adaptation.prompt_tune(
                ParamStore.initialize(config, seed=0), config, graph,
                make_few_shot_split(graph, shots=2, seed=0), labels, epochs=2,
                sampler_cfg=SamplerConfig(node_budget=5, max_steps=40))
        recorded = [span[0] for span in tracer.spans]
        assert recorded.count("adapt.prompt_tune") == 1
        assert recorded.count("losses.supervised_contrastive_loss_tensor") == 2
        assert recorded.count("autodiff.backward") == 2
        assert tracer.totals["autodiff.tensors_created"] > 0
        assert len(result.losses) == 2
