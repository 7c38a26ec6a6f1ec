"""Span tracing of tagsum's public functions, installed from outside the package.

A ``Tracer`` replaces selected module functions and methods with wrappers that
record one span per call (name, start, end, parent span, phase). Because the
package imports its functions by name (``from .graphs import rwr_sample``),
every module-level reference to a wrapped function is replaced, not only the
defining one; ``uninstall`` puts the originals back. Spans stay in memory and
are summarized, and written out, when the run ends.

Autodiff ops and ``Tensor`` construction are called tens of thousands of times
per job, so they only accumulate a time or a count instead of a span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Spans of these functions are the layer boundaries the per-layer metrics use.
SPAN_FUNCTIONS = {
    "graphs.rwr_sample": ("tagsum.graphs", "rwr_sample"),
    "graphs.with_positional_encodings": ("tagsum.graphs", "with_positional_encodings"),
    "encoder.encode_graph_tensor": ("tagsum.encoder", "encode_graph_tensor"),
    "encoder.encode_graph": ("tagsum.encoder", "encode_graph"),
    "encoder.save_checkpoint": ("tagsum.encoder", "save_checkpoint"),
    "losses.contrastive_loss_tensor": ("tagsum.losses", "contrastive_loss_tensor"),
    "losses.alignment_uniformity": ("tagsum.losses", "alignment_uniformity"),
    "losses.supervised_contrastive_loss_tensor":
        ("tagsum.losses", "supervised_contrastive_loss_tensor"),
    "pretrain.pretrain": ("tagsum.pretrain", "pretrain"),
    "pretrain.inner_maximize": ("tagsum.pretrain", "inner_maximize"),
    "pretrain.materialize_subgraphs": ("tagsum.pretrain", "materialize_subgraphs"),
    "adapt.evaluate_link_prediction": ("tagsum.adapt", "evaluate_link_prediction"),
    "adapt.evaluate_node_classification":
        ("tagsum.adapt", "evaluate_node_classification"),
    "adapt.prompt_tune": ("tagsum.adapt", "prompt_tune"),
    "adapt.zero_shot_classify": ("tagsum.adapt", "zero_shot_classify"),
    "adapt.link_score": ("tagsum.adapt", "link_score"),
    "graphml.emit_graphml": ("tagsum.graphml", "emit_graphml"),
    "graphml.parse_graphml": ("tagsum.graphml", "parse_graphml"),
    "prompts.render_summary_prompt": ("tagsum.prompts", "render_summary_prompt"),
    "corpus.generate_pairs": ("tagsum.corpus", "generate_pairs"),
    "corpus.write_pairs": ("tagsum.corpus", "write_pairs"),
    "corpus.read_pairs": ("tagsum.corpus", "read_pairs"),
    "textenc.attach_features": ("tagsum.textenc", "attach_features"),
}
SPAN_METHODS = {
    "graphs.without_edge": ("tagsum.graphs", "TextAttributedGraph", "without_edge"),
    "autodiff.backward": ("tagsum.autodiff", "Tensor", "backward"),
    "pretrain.AdamW.step": ("tagsum.pretrain", "AdamW", "step"),
}
# Forward ops timed without spans: accumulated seconds per op.
TIMED_OPS = ("matmul", "softmax", "layer_norm", "gelu", "concat")


def _per_layer_spec():
    s, ms, n, r = "s", "ms", "count", "ratio"
    spec = [
        ("graphs.rwr_sample.calls", n, "lower"),
        ("graphs.rwr_sample.busy_s", s, "lower"),
        ("graphs.rwr_sample.ms_p50", ms, "lower"),
        ("graphs.rwr_sample.ms_p99", ms, "lower"),
        ("graphs.with_positional_encodings.calls", n, "lower"),
        ("graphs.with_positional_encodings.busy_s", s, "lower"),
        ("graphs.without_edge.calls", n, "lower"),
        ("graphs.without_edge.busy_s", s, "lower"),
        ("graphs.without_edge.ms_p50", ms, "lower"),
        ("graphs.neighbors.builds", n, "lower"),
        ("graphs.neighbors.busy_s", s, "lower"),
        ("encoder.encode_graph_tensor.calls", n, "lower"),
        ("encoder.encode_graph_tensor.busy_s", s, "lower"),
        ("encoder.encode_graph.calls", n, "lower"),
        ("encoder.encode_graph.busy_s", s, "lower"),
        ("encoder.encode_graph.ms_p50", ms, "lower"),
        ("encoder.encode_graph.ms_p99", ms, "lower"),
        ("encoder.subgraph_nodes.mean", "nodes", "lower"),
        ("encoder.subgraph_nodes.max", "nodes", "lower"),
        ("encoder.save_checkpoint.busy_s", s, "lower"),
        ("autodiff.backward.calls", n, "lower"),
        ("autodiff.backward.busy_s", s, "lower"),
        ("autodiff.backward.ms_p50", ms, "lower"),
        ("autodiff.tensors_created", n, "lower"),
    ]
    spec += [(f"autodiff.{op}.fwd_s", s, "lower") for op in TIMED_OPS]
    spec += [
        ("losses.contrastive_loss_tensor.busy_s", s, "lower"),
        ("losses.alignment_uniformity.busy_s", s, "lower"),
        ("losses.supervised_contrastive_loss_tensor.busy_s", s, "lower"),
        ("pretrain.inner_maximize.calls", n, "lower"),
        ("pretrain.inner_maximize.busy_s", s, "lower"),
        ("pretrain.inner_maximize.self_s", s, "lower"),
        ("pretrain.inner_maximize.ms_p50", ms, "lower"),
        ("pretrain.inner_maximize.ms_p90", ms, "lower"),
        ("pretrain.AdamW.step.busy_s", s, "lower"),
        ("pretrain.materialize_subgraphs.busy_s", s, "lower"),
        ("pretrain.ascent.skipped_share", r, "lower"),
        ("pretrain.adversary_loss_gain.mean", "loss", "higher"),
        ("pretrain.max_block_norm", "norm", "lower"),
        ("adapt.evaluate_link_prediction.self_s", s, "lower"),
        ("adapt.evaluate_node_classification.self_s", s, "lower"),
        ("adapt.prompt_tune.self_s", s, "lower"),
        ("adapt.zero_shot_classify.busy_s", s, "lower"),
        ("adapt.link_score.busy_s", s, "lower"),
        ("graphml.emit_graphml.busy_s", s, "lower"),
        ("graphml.parse_graphml.busy_s", s, "lower"),
        ("prompts.render_summary_prompt.calls", n, "lower"),
        ("prompts.render_summary_prompt.busy_s", s, "lower"),
        ("corpus.client.calls", n, "lower"),
        ("corpus.client.busy_s", s, "lower"),
        ("corpus.client.retries", n, "lower"),
        ("corpus.client.failures", n, "lower"),
        ("corpus.write_pairs.calls", n, "lower"),
        ("corpus.write_pairs.busy_s", s, "lower"),
        ("corpus.read_pairs.busy_s", s, "lower"),
        ("textenc.attach_features.busy_s", s, "lower"),
        ("trace.coverage", r, "higher"),
        ("trace.overhead", r, "lower"),
    ]
    return spec


# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = _per_layer_spec()


def _tagsum_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tagsum" or name.startswith("tagsum."))]


class Tracer:
    """Records spans and counters while installed; see the module docstring.

    Figures are reported per job: everything recorded during set-up plus the
    job-phase total divided by the number of traced jobs.
    """

    def __init__(self, extra_methods=()):
        self.spans: list = []          # (name, start, end, parent index, phase)
        self.totals = defaultdict(float)
        self.samples = defaultdict(list)
        self.phase = "setup"
        self._marks: dict[str, dict] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self._extra_methods = list(extra_methods)

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.phase)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _timed(self, name, fn):
        totals, clock = self.totals, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += clock() - start
        return wrapper

    def _observe_encode(self, args, kwargs, result):
        sub = args[2] if len(args) > 2 else kwargs["sub"]
        self.samples["encoder.subgraph_nodes"].append(sub.num_nodes)

    def _observe_inner(self, args, kwargs, result):
        # inner_maximize(store, config, subgraphs, summary_embs, pert, temperature)
        subgraphs = args[2] if len(args) > 2 else kwargs["subgraphs"]
        pert = args[4] if len(args) > 4 else kwargs["pert"]
        self.totals["pretrain.ascent.attempts"] += pert.inner_steps * len(subgraphs)
        self.totals["pretrain.ascent.skipped"] += result.skipped_zero_grad_steps
        self.samples["pretrain.adversary_loss_gain"].append(
            result.final_loss - result.first_loss)
        self.samples["pretrain.max_block_norm"].append(result.max_block_norm)

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in _tagsum_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import tagsum  # noqa: F401 - loads every submodule the spans name
        from tagsum import autodiff, graphs

        observers = {"encoder.encode_graph_tensor": self._observe_encode,
                     "pretrain.inner_maximize": self._observe_inner}
        for name, (module_name, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            self._replace_everywhere(original,
                                     self._span(name, original, observers.get(name)))
        methods = [(name, getattr(sys.modules[m], cls), attr)
                   for name, (m, cls, attr) in SPAN_METHODS.items()]
        for name, owner, attr in methods + self._extra_methods:
            self._replace_attr(owner, attr, self._span(name, owner.__dict__[attr]))

        for op in TIMED_OPS:
            original = getattr(autodiff, op)
            self._replace_everywhere(original, self._timed(f"autodiff.{op}.fwd_s", original))

        totals = self.totals
        tensor_init = autodiff.Tensor.__dict__["__init__"]

        @functools.wraps(tensor_init)
        def counting_init(tensor, *args, **kwargs):
            totals["autodiff.tensors_created"] += 1
            tensor_init(tensor, *args, **kwargs)
        self._replace_attr(autodiff.Tensor, "__init__", counting_init)

        # Neighbor lists are a cached property: wrap the builder so every
        # construction (one per graph copy) is a span.
        cached = graphs.TextAttributedGraph.__dict__["neighbors"]
        traced = functools.cached_property(self._span("graphs.neighbors", cached.func))
        traced.__set_name__(graphs.TextAttributedGraph, "neighbors")
        self._replace_attr(graphs.TextAttributedGraph, "neighbors", traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def suspended(self):
        """Run output checks without recording them."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def mark(self, phase: str) -> None:
        """Close the current phase and start ``phase``; counters are snapshot."""
        self._marks[self.phase] = dict(self.totals)
        self.phase = phase

    # -- summary -----------------------------------------------------------

    def summarize(self, jobs: int, job_wall_s: float, extra_counts: dict,
                  overhead: float) -> tuple[dict, dict]:
        """Per-layer metrics (per set-up plus one job) and self time by span."""
        self.mark("done")
        jobs = max(jobs, 1)
        setup_totals = self._marks.get("setup", {})
        job_totals = self._marks.get("jobs", setup_totals)

        def per_job(setup_value, job_value):
            return setup_value + job_value / jobs

        durations = defaultdict(list)
        busy = defaultdict(lambda: [0.0, 0.0])
        self_time = defaultdict(lambda: [0.0, 0.0])
        counts = defaultdict(lambda: [0, 0])
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        covered = 0.0
        for index, (name, start, end, parent, phase) in enumerate(self.spans):
            slot = 1 if phase == "jobs" else 0
            duration = end - start
            durations[name].append(duration)
            busy[name][slot] += duration
            self_time[name][slot] += duration - child_time[index]
            counts[name][slot] += 1
            if slot and parent >= 0:
                covered += duration - child_time[index]

        self_by_name = {name: per_job(*value) for name, value in self_time.items()}
        metrics = {metric: 0.0 for metric, _, _ in PER_LAYER}
        for metric in metrics:
            layer, _, kind = metric.rpartition(".")
            if kind in ("calls", "builds"):
                metrics[metric] = per_job(*counts[layer])
            elif kind == "busy_s":
                metrics[metric] = per_job(*busy[layer])
            elif kind == "self_s":
                metrics[metric] = per_job(*self_time[layer])
            elif kind.startswith("ms_p"):
                values = durations[layer]
                metrics[metric] = (float(np.percentile(values, int(kind[4:]))) * 1e3
                                   if values else 0.0)
            elif kind == "fwd_s" or metric == "autodiff.tensors_created":
                metrics[metric] = per_job(setup_totals.get(metric, 0.0),
                                          job_totals.get(metric, 0.0)
                                          - setup_totals.get(metric, 0.0))

        nodes = self.samples["encoder.subgraph_nodes"]
        metrics["encoder.subgraph_nodes.mean"] = float(np.mean(nodes)) if nodes else 0.0
        metrics["encoder.subgraph_nodes.max"] = float(max(nodes, default=0))
        attempts = self.totals["pretrain.ascent.attempts"]
        metrics["pretrain.ascent.skipped_share"] = (
            self.totals["pretrain.ascent.skipped"] / attempts if attempts else 0.0)
        gains = self.samples["pretrain.adversary_loss_gain"]
        metrics["pretrain.adversary_loss_gain.mean"] = float(np.mean(gains)) if gains else 0.0
        metrics["pretrain.max_block_norm"] = float(
            max(self.samples["pretrain.max_block_norm"], default=0.0))
        for name, total in extra_counts.items():
            metrics[name] = total / jobs
        # Share of the traced jobs' wall time attributed to a layer below the
        # top-level call, rather than to the entry point or the harness.
        metrics["trace.coverage"] = covered / job_wall_s if job_wall_s > 0 else 0.0
        metrics["trace.overhead"] = overhead

        return metrics, self_by_name

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end in seconds, parent, phase."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, phase in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin,
                                         parent, phase]) + "\n")
