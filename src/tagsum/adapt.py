"""Zero-shot inference, link prediction, and graph prompt tuning.

Zero-shot classification embeds each class as a rendered label sentence and
picks the nearest one by cosine similarity (ties break to the lowest class
id). Link prediction scores an edge as the cosine of its endpoints'
subgraph embeddings; the sampler excludes the scored edge, so neither
endpoint sees it and the graph is never copied.

An evaluation request is one pass over all of its runs: it draws every
run's test set first, walks every node of every run in one
``graphs.rwr_batch`` call (each walker on its run's stream), then encodes
the subgraphs in fixed-size chunks, each built by the one batch builder
(``encoder.subgraph_batch``, through ``pair_batch``) and encoded with no
autodiff tape. All nodes are scored at once: node classification in one
matmul against the label embeddings, link prediction as one row-wise
product. The scores equal ``zero_shot_classify`` and ``link_score`` row
by row, bit for bit; each run's figure is read from its slice.

Prompt tuning learns a single shared feature offset added to every node
feature, trained with a supervised contrastive loss against label
sentences while both towers stay frozen: the tape sees the graph tower's
weights as constants, so backward computes no tower gradient. The walks of
all epochs run in one ``rwr_batch`` call up front; the zero-shot and the
tuned accuracy share one walk of the test nodes and its batches.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_text
from .autodiff import Tensor
from .encoder import GraphEncoderConfig, ParamStore, embed_batch, encode_batch, subgraph_batch
from .errors import ValidationError
from .graphs import SamplerConfig, TextAttributedGraph, rwr_batch
from .losses import supervised_contrastive_loss_tensor
from .pretrain import AdamW, OptimizerConfig
from .prompts import render_label_sentence
from .textenc import Embedding, _row_dots

_MASK32 = (1 << 32) - 1
# Subgraphs encoded per inference batch. Evaluation streams the chunks, so a
# request holds one padded batch at a time; prompt tuning keeps its test
# batches for its two scoring passes.
INFERENCE_CHUNK = 16


@dataclass(frozen=True)
class LabelPromptSet:
    """Rendered label sentences and their frozen-encoder embeddings."""

    class_names: tuple[str, ...]
    sentences: tuple[str, ...]
    embeddings: np.ndarray  # (C, d), unit rows

    def __post_init__(self):
        if len(self.class_names) != len(self.sentences):
            raise ValidationError("one sentence per class required")
        if self.embeddings.shape[0] != len(self.class_names):
            raise ValidationError("one embedding per class required")
        norms = np.linalg.norm(self.embeddings, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValidationError("label embeddings must be unit-norm")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def build_label_prompts(
    class_names,
    descriptions,
    template: str,
    text_encoder,
) -> LabelPromptSet:
    sentences = tuple(
        render_label_sentence(template, name, desc)
        for name, desc in zip(class_names, descriptions)
    )
    return LabelPromptSet(tuple(class_names), sentences, text_encoder.encode_texts(sentences))


def load_label_prompt_asset(path, text_encoder) -> LabelPromptSet:
    """Label asset file: {"template": ..., "classes": [{"id", "name",
    "description"}, ...]} with ids 0..C-1, at least one class, and text for
    the template, names and descriptions."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
        template = spec["template"]
        classes = sorted(spec["classes"], key=lambda c: c["id"])
        names = [c["name"] for c in classes]
        descriptions = [c.get("description", "") for c in classes]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValidationError(
            f"malformed label asset {path}: {type(exc).__name__}: {exc}") from exc
    if not classes:
        raise ValidationError(f"label asset {path} has no classes")
    ids = [c["id"] for c in classes]
    # Exact int: JSON true and 0.0 compare equal to the ids 1 and 0.
    if any(type(i) is not int for i in ids) or ids != list(range(len(classes))):
        raise ValidationError("class ids must be the integers 0..C-1 with no gaps")
    for text in (template, *names, *descriptions):
        if not isinstance(text, str):
            raise ValidationError(f"label asset {path}: template, class names and "
                                  f"descriptions must be strings, got {text!r:.40}")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:          # a lone surrogate from a JSON escape
            raise ValidationError(f"label asset {path}: {exc.reason} in {text!r:.40}") from None
    return build_label_prompts(names, descriptions, template, text_encoder)


def save_label_prompt_asset(path, template: str, class_names, descriptions) -> None:
    payload = {
        "template": template,
        "classes": [
            {"id": i, "name": name, "description": desc}
            for i, (name, desc) in enumerate(zip(class_names, descriptions))
        ],
    }
    write_text(path, json.dumps(payload, indent=2) + "\n")


def prompt_index_map(graph: TextAttributedGraph, labels: LabelPromptSet) -> np.ndarray:
    """Graph label id -> prompt-set class index, matched by class name.

    Graph loaders may order class ids differently from a label asset; names
    are the stable join key. Falls back to identity when the graph carries
    no class names.
    """
    if graph.class_names is None:
        return np.arange(labels.num_classes)
    index = {name: i for i, name in enumerate(labels.class_names)}
    mapping = []
    for name in graph.class_names:
        if name not in index:
            raise ValidationError(
                f"class {name!r} present in the graph but missing from the prompt set"
            )
        mapping.append(index[name])
    return np.array(mapping, dtype=np.int64)


def zero_shot_classify(h, labels: LabelPromptSet) -> tuple[int, np.ndarray]:
    """Nearest label sentence by cosine; ties break to the lowest class id."""
    if labels.num_classes == 0:
        raise ValidationError("empty label set")
    vec = h.vector if isinstance(h, Embedding) else np.asarray(h, dtype=np.float64)
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        scores = np.zeros(labels.num_classes)
    else:
        scores = labels.embeddings @ (vec / norm)
    return int(np.argmax(scores)), scores


def _node_sampler_cfg(base: SamplerConfig, run_seed: int) -> SamplerConfig:
    # One deterministic stream per evaluation run; the walker mixes in the
    # node id itself.
    return dataclasses.replace(base, rng_seed=(base.rng_seed * 0x9E3779B1 + run_seed) & _MASK32)


def _run_walk_seeds(sampler_cfg: SamplerConfig, run_seeds, per_run: int) -> np.ndarray:
    """The walk seed of every node of a request: ``per_run`` nodes per run,
    each run on its own stream (``_node_sampler_cfg``)."""
    return np.repeat([_node_sampler_cfg(sampler_cfg, seed).rng_seed for seed in run_seeds],
                     per_run)


def _inference_batches(config: GraphEncoderConfig, graph: TextAttributedGraph,
                       sampler_cfg: SamplerConfig, nodes, walk_seeds, excluded=None):
    """Padded batches of each node's ego-subgraph with positional encodings:
    every walk in one ``rwr_batch`` call, then ``INFERENCE_CHUNK`` subgraphs
    per batch, built as they are consumed.

    ``walk_seeds[i]`` seeds the walk from ``nodes[i]``; ``excluded[i]`` is an
    edge left out when sampling ``nodes[i]``, or None.
    """
    node_sets = rwr_batch(graph, nodes, walk_seeds, sampler_cfg, excluded)
    for start in range(0, len(node_sets), INFERENCE_CHUNK):
        stop = start + INFERENCE_CHUNK
        yield subgraph_batch(config, graph, node_sets[start:stop],
                             None if excluded is None else excluded[start:stop])


def _embed(store: ParamStore, config: GraphEncoderConfig, batches,
           feature_offset: np.ndarray | None = None) -> np.ndarray:
    """Embeddings (nodes, d) of every subgraph in ``batches``, with no tape."""
    return np.concatenate([embed_batch(store, config, batch, feature_offset)
                           for batch in batches])


def _label_scores(embeddings: np.ndarray, labels: LabelPromptSet) -> np.ndarray:
    """``zero_shot_classify``'s scores (nodes, C) of every row in one matmul,
    bit for bit, so their argmax still breaks ties to the lowest class id."""
    norms = np.sqrt(_row_dots(embeddings, embeddings))[:, None]
    unit = np.divide(embeddings, norms, out=np.zeros_like(embeddings), where=norms != 0.0)
    return (unit[:, None, :] @ labels.embeddings.T)[:, 0, :]


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``link_score`` of every row pair: a zero norm scores 0, and scores are
    clipped to [-1, 1]."""
    norm_a, norm_b = np.sqrt(_row_dots(a, a)), np.sqrt(_row_dots(b, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.clip(_row_dots(a, b) / (norm_a * norm_b), -1.0, 1.0)
    scores[(norm_a == 0.0) | (norm_b == 0.0)] = 0.0
    return scores


def _check_runs(test_fraction: float, num_runs: int) -> None:
    if not 0.0 < test_fraction <= 1.0:
        raise ValidationError(f"test fraction must lie in (0, 1], got {test_fraction!r}")
    if num_runs < 1:
        raise ValidationError(f"number of runs must be >= 1, got {num_runs!r}")


@dataclass
class EvalRun:
    seed: int
    value: float


@dataclass
class EvalResult:
    metric: str
    runs: list[EvalRun] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean([r.value for r in self.runs]))

    @property
    def std(self) -> float:
        return float(np.std([r.value for r in self.runs]))


def evaluate_node_classification(
    store: ParamStore,
    config: GraphEncoderConfig,
    graph: TextAttributedGraph,
    labels: LabelPromptSet,
    sampler_cfg: SamplerConfig,
    *,
    test_fraction: float = 0.2,
    num_runs: int = 5,
    base_seed: int = 0,
) -> EvalResult:
    """Zero-shot accuracy over ``num_runs`` random test splits (mean and std).

    Each run draws a fresh ``test_fraction`` of the labeled nodes and a fresh
    sampler stream; runs are deterministic in (base_seed, run index).
    """
    _check_runs(test_fraction, num_runs)
    if graph.labels is None or graph.class_names is None:
        raise ValidationError("target graph needs labels and class names")
    labeled = np.flatnonzero(graph.labels >= 0)
    if labeled.size == 0:
        raise ValidationError("graph has no labeled nodes")

    num_test = max(1, int(round(test_fraction * labeled.size)))
    run_seeds = [base_seed + run for run in range(num_runs)]
    test_nodes = np.concatenate([np.random.default_rng(seed).choice(labeled, size=num_test,
                                                                    replace=False)
                                 for seed in run_seeds])
    correct = _correct(store, config, graph, labels, _inference_batches(
        config, graph, sampler_cfg, test_nodes,
        _run_walk_seeds(sampler_cfg, run_seeds, num_test)), test_nodes)
    return EvalResult(metric="accuracy", runs=[
        EvalRun(seed=seed, value=float(run.mean()))
        for seed, run in zip(run_seeds, correct.reshape(num_runs, num_test))])


def _correct(store, config, graph, labels, batches, node_ids,
             feature_offset=None) -> np.ndarray:
    """Whether each node's zero-shot prediction matches its label, for the
    subgraphs of ``node_ids`` in ``batches``."""
    truth = prompt_index_map(graph, labels)[graph.labels[np.asarray(node_ids)]]
    scores = _label_scores(_embed(store, config, batches, feature_offset), labels)
    return scores.argmax(axis=1) == truth


def link_score(h_i, h_j) -> float:
    """Cosine similarity of two endpoint embeddings, in [-1, 1]."""
    a = h_i.vector if isinstance(h_i, Embedding) else np.asarray(h_i, dtype=np.float64)
    b = h_j.vector if isinstance(h_j, Embedding) else np.asarray(h_j, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def auc(scores, truth) -> float:
    """Exact ROC AUC with ties counted 0.5, via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ValidationError("scores and truth must be equal-length 1-D")
    num_pos = int(truth.sum())
    num_neg = truth.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise ValidationError("need at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Runs of equal sorted scores, first index i and last j; != rather than a
    # difference keeps equal infinities tied and every NaN on its own.
    first = np.r_[0, np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1]
    last = np.r_[first[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)  # average 1-based rank
    pos_rank_sum = ranks[truth].sum()
    return float((pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def evaluate_link_prediction(
    store: ParamStore,
    config: GraphEncoderConfig,
    graph: TextAttributedGraph,
    sampler_cfg: SamplerConfig,
    *,
    test_fraction: float = 0.5,
    num_runs: int = 5,
    base_seed: int = 0,
) -> EvalResult:
    """AUC of cosine edge scores against uniformly sampled non-edges.

    Both endpoints of a scored positive edge are sampled with that edge
    excluded, so the score never sees the edge it predicts.
    """
    _check_runs(test_fraction, num_runs)
    if not graph.edges:
        raise ValidationError("graph has no edges")
    num_test = max(1, int(round(test_fraction * len(graph.edges))))
    # Edges are unique and canonical, so this counts the node pairs that are
    # not edges. With none, the rejection sampler below never ends; with fewer
    # than num_test, the negatives could only be repeats.
    non_edges = graph.num_nodes * (graph.num_nodes - 1) // 2 - len(graph.edges)
    if non_edges < num_test:
        raise ValidationError(f"link prediction needs {num_test} non-edges as negatives; "
                              f"the graph has {non_edges}")
    edge_set = set(graph.edges)
    run_seeds = [base_seed + run for run in range(num_runs)]
    pairs, excluded = [], []
    for seed in run_seeds:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(graph.edges), size=num_test, replace=False)
        positives = [graph.edges[int(i)] for i in chosen]
        negatives = []
        while len(negatives) < num_test:
            u = int(rng.integers(graph.num_nodes))
            v = int(rng.integers(graph.num_nodes))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in edge_set:
                continue
            negatives.append(key)
        pairs += positives + negatives
        excluded += [pair for pair in positives for _ in pair] + [None] * (2 * num_test)
    embeddings = _embed(store, config, _inference_batches(
        config, graph, sampler_cfg, [node for pair in pairs for node in pair],
        _run_walk_seeds(sampler_cfg, run_seeds, 4 * num_test), excluded))
    scores = _cosines(embeddings[::2], embeddings[1::2]).reshape(num_runs, 2 * num_test)
    truth = [True] * num_test + [False] * num_test
    return EvalResult(metric="auc", runs=[EvalRun(seed=seed, value=auc(run, truth))
                                          for seed, run in zip(run_seeds, scores)])


@dataclass(frozen=True)
class PromptVector:
    """The single shared feature offset learned by prompt tuning."""

    values: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValidationError("prompt vector must be finite")
        object.__setattr__(self, "values", vec)

    def save(self, path) -> None:
        write_text(path, json.dumps({"values": self.values.tolist()}) + "\n")


@dataclass(frozen=True)
class FewShotSplit:
    """k labeled train nodes per class plus a disjoint labeled test set."""

    shots: int
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValidationError("shots must be >= 1 (zero-shot needs no split)")
        if set(self.train_ids) & set(self.test_ids):
            raise ValidationError("train and test overlap")


def make_few_shot_split(
    graph: TextAttributedGraph, shots: int, seed: int
) -> FewShotSplit:
    """Draw exactly ``shots`` train nodes per class; the rest become the test set."""
    if shots < 1:
        raise ValidationError("shots must be >= 1 (zero-shot needs no split)")
    if graph.labels is None:
        raise ValidationError("graph has no labels")
    rng = np.random.default_rng(seed)
    labels = np.asarray(graph.labels)
    train: list[int] = []
    for c in sorted(set(labels[labels >= 0].tolist())):
        members = np.flatnonzero(labels == c)
        if members.size < shots + 1:
            raise ValidationError(f"class {c} has too few nodes for {shots} shots")
        train.extend(rng.choice(members, size=shots, replace=False).tolist())
    test = labels >= 0
    test[train] = False
    return FewShotSplit(shots=shots, train_ids=tuple(sorted(train)),
                        test_ids=tuple(np.flatnonzero(test).tolist()), seed=seed)


@dataclass
class PromptTuneResult:
    prompt: PromptVector
    tuned_accuracy: float
    zero_shot_accuracy: float
    losses: list[float]
    tower_checksum_before: str
    tower_checksum_after: str

    @property
    def towers_frozen(self) -> bool:
        return self.tower_checksum_before == self.tower_checksum_after


def prompt_tune(
    store: ParamStore,
    config: GraphEncoderConfig,
    graph: TextAttributedGraph,
    split: FewShotSplit,
    labels: LabelPromptSet,
    *,
    epochs: int = 100,
    lr: float = 1e-4,
    weight_decay: float = 1e-5,
    temperature: float = 0.1,
    sampler_cfg: SamplerConfig | None = None,
    text_encoder=None,
) -> PromptTuneResult:
    """Learn the shared prompt vector on the few-shot split; towers frozen.

    Every epoch draws fresh ego-subgraphs for the shots and runs one
    full-batch supervised contrastive step over them. The prompt starts at
    zero, so the initial model is exactly the zero-shot model.
    """
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    sampler_cfg = sampler_cfg or SamplerConfig()
    checksum_before = store.checksum()
    if text_encoder is not None:
        checksum_before += ":" + text_encoder.state_checksum()

    mapping = prompt_index_map(graph, labels)
    train_labels = np.array([int(mapping[graph.labels[n]]) for n in split.train_ids])

    # The frozen tower shares the store's arrays but has no gradient buffer,
    # so backward computes no weight gradient and leaves the store's alone.
    frozen = ParamStore(store.shapes, store.data, trainable=False)
    sigma, sigma_grad = np.zeros(config.text_dim), np.zeros(config.text_dim)
    optimizer = AdamW(sigma, sigma_grad, OptimizerConfig(lr=lr, weight_decay=weight_decay))
    # Fresh subgraph draws per epoch keep sigma from overfitting one sample
    # of each shot's neighborhood: epoch e walks on its own stream seed.
    shots = len(split.train_ids)
    epoch_seeds = [_node_sampler_cfg(sampler_cfg, split.seed * 1009 + epoch).rng_seed
                   for epoch in range(epochs)]
    node_sets = rwr_batch(graph, list(split.train_ids) * epochs,
                          np.repeat(epoch_seeds, shots), sampler_cfg, None)
    losses = []
    for epoch in range(epochs):
        batch = subgraph_batch(config, graph, node_sets[epoch * shots:(epoch + 1) * shots],
                               None)
        # sigma also lands on padded slots, which the encoder ignores; its
        # gradient is the feature gradient summed over subgraphs and slots.
        z, x = encode_batch(frozen, config, batch,
                            Tensor(batch.features + sigma, requires_grad=True))
        loss = supervised_contrastive_loss_tensor(
            z, train_labels, labels.embeddings, temperature)
        loss.backward()
        np.sum(x.grad, axis=(0, 1), out=sigma_grad)
        optimizer.step()
        losses.append(loss.item())

    # Both accuracies score the same subgraphs: walked and built once.
    test_batches = list(_inference_batches(
        config, graph, sampler_cfg, split.test_ids,
        _run_walk_seeds(sampler_cfg, [split.seed], len(split.test_ids))))
    zero_acc = float(_correct(store, config, graph, labels, test_batches,
                              split.test_ids).mean())
    tuned_acc = float(_correct(store, config, graph, labels, test_batches,
                               split.test_ids, sigma).mean())

    checksum_after = store.checksum()
    if text_encoder is not None:
        checksum_after += ":" + text_encoder.state_checksum()

    return PromptTuneResult(
        prompt=PromptVector(values=sigma.copy()),
        tuned_accuracy=tuned_acc,
        zero_shot_accuracy=zero_acc,
        losses=losses,
        tower_checksum_before=checksum_before,
        tower_checksum_after=checksum_after,
    )
