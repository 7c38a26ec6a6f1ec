"""Finite-difference verification of every analytic gradient.

Central differences with step 1e-5 on float64 are the independent oracle for
the whole reverse-mode path: encoder parameters, input features, and each
fused tape op on its own, the encoder's sublayers and the contrastive and
supervised contrastive losses. One function, ``check_gradients``, runs each
case of one table: the whole encoder or one fused op. The relative error of a tensor is the worst
entrywise |analytic - fd| / (max(|analytic|, |fd|) + 1e-5); the additive
floor keeps near-zero gradients from amplifying the oracle's own roundoff,
while real sign or scale errors still show up orders of magnitude above the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .encoder import (
    FFN_PARAMS,
    MIXING_PARAMS,
    GraphEncoderConfig,
    PaddedBatch,
    ParamStore,
    encode_batch,
    ffn_sublayer,
    input_projection,
    mixing_sublayer,
    pair_batch,
    readout,
)
from .errors import ValidationError
from .graphs import SamplerConfig, TextAttributedGraph, rwr_batch
from .losses import contrastive_loss_tensor, supervised_contrastive_loss_tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_ERR_FLOOR = 1e-5


def central_difference(f, array: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Entrywise central finite differences of a scalar function of ``array``.

    Mutates each entry in place and restores it; ``f`` must re-read the array.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = f()
        flat[i] = original - step
        minus = f()
        flat[i] = original
        out[i] = (plus - minus) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst entrywise relative error with an additive floor."""
    denom = np.maximum(np.abs(analytic), np.abs(numeric)) + _ERR_FLOOR
    return float(np.max(np.abs(analytic - numeric) / denom))


def compare_gradients(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, tuple[float, bool]]:
    """Per-tensor (worst relative error, passed) for two gradient maps."""
    if set(analytic) != set(numeric):
        raise ValidationError("gradient maps cover different tensors")
    return {
        name: (err := relative_error(analytic[name], numeric[name]), err < tolerance)
        for name in sorted(analytic)
    }


@dataclass
class GradCheckEntry:
    context: str
    tensor: str
    worst_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def worst(self) -> float:
        return max((entry.worst_rel_err for entry in self.entries), default=0.0)

    def add(self, context: str, comparisons: dict[str, tuple[float, bool]]) -> None:
        for tensor, (err, ok) in comparisons.items():
            self.entries.append(GradCheckEntry(context, tensor, err, ok))

    def to_text(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g})"]
        for entry in self.entries:
            status = "ok" if entry.passed else "FAIL"
            lines.append(
                f"  [{status}] {entry.context:30s} {entry.tensor:28s} "
                f"rel_err={entry.worst_rel_err:.3e}"
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} "
                     f"(worst {self.worst:.3e})")
        return "\n".join(lines)


def _random_batch(config: GraphEncoderConfig, sizes: tuple[int, ...], seed: int) -> PaddedBatch:
    """A padded batch of one random subgraph per entry of ``sizes``.

    Subgraph i comes from a graph of its own on n = sizes[i] nodes, drawn
    from seed + 1 + i: each pair joined with probability 0.7, then normal
    features. A walk from node 0 on the same seed picks the nodes. Each
    graph is one source of one ``pair_batch``."""
    sources = []
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(seed + 1 + i)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.7]
        graph = TextAttributedGraph.from_edges(n, edges, [""] * n,
                                               features=rng.normal(size=(n, config.text_dim)))
        walk = rwr_batch(graph, [0], [seed + 1 + i],
                         SamplerConfig(node_budget=n, max_steps=8 * n), None)
        sources.append((graph, [i], walk, None))
    return pair_batch(config, sources).take(slice(None))


FUSED_OPS = ("input_projection", "mixing", "ffn", "readout", "contrastive_loss",
             "supervised_contrastive_loss")


def _cases(config: GraphEncoderConfig, store: ParamStore, batch: PaddedBatch,
           rng: np.random.Generator, seed: int) -> dict:
    """Case -> (inputs by report name, parameter names, a function of the input
    tensors in that order). The encoder reads the batch's features, the
    sublayers random hidden states, the losses (B, text_dim) unit rows; the
    supervised loss scores them against two unit class rows."""
    hidden = rng.normal(size=batch.features.shape[:2] + (config.hidden,))

    def unit_rows(rows=len(batch), draw=rng):
        a = draw.normal(size=(rows, config.text_dim))
        return a / np.linalg.norm(a, axis=1, keepdims=True)

    # The supervised loss draws from a stream of its own, which leaves every
    # other case's draws alone. Anchors alternate between two classes: at
    # three, two share a class and the middle one has no partner.
    scl_rng = np.random.default_rng(seed + 3)
    scl_anchors, scl_classes = unit_rows(draw=scl_rng), unit_rows(2, scl_rng)
    scl_labels = np.arange(len(batch)) % 2
    return {
        "encoder": ({"input.features": batch.features}, store.names(),
                    lambda x: encode_batch(store, config, batch, x)[0]),
        "input_projection": ({"input_projection.x": batch.features},
                             ("input.weight", "input.bias"),
                             lambda x: input_projection(x, batch, store)),
        "mixing": ({"mixing.h": hidden}, ["layer0." + n for n in MIXING_PARAMS],
                   lambda h: mixing_sublayer(h, batch, store, "layer0.", config.heads)),
        "ffn": ({"ffn.h": hidden}, ["layer0." + n for n in FFN_PARAMS],
                lambda h: ffn_sublayer(h, store, "layer0.")),
        "readout": ({"readout.h": hidden}, ("proj.weight", "proj.bias"),
                    lambda h: readout(h, batch, store)),
        "contrastive_loss": ({"contrastive_loss.h": unit_rows(),
                              "contrastive_loss.u": unit_rows()}, (),
                             lambda h, u: contrastive_loss_tensor(h, u, 0.1)),
        "supervised_contrastive_loss": (
            {"supervised_contrastive_loss.z": scl_anchors}, (),
            lambda z: supervised_contrastive_loss_tensor(z, scl_labels, scl_classes, 0.1)),
    }


def check_gradients(
    case: str,
    config: GraphEncoderConfig,
    sizes: tuple[int, ...] = (3, 1, 2),
    seed: int = 0,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, tuple[float, bool]]:
    """FD-verify one case, ``"encoder"`` or one of ``FUSED_OPS``: its
    parameter gradients and the gradient of each of its inputs, for a
    random weighting of its output.

    The case runs on a padded, masked batch of subgraphs of ``sizes``; the
    weighting covers padded rows too, so the whole function is checked."""
    store = ParamStore.initialize(config, seed=seed)
    batch = _random_batch(config, sizes, seed)
    rng = np.random.default_rng(seed + 2)
    inputs, params, apply = _cases(config, store, batch, rng, seed)[case]
    inputs = {name: a.copy() for name, a in inputs.items()}     # perturbed in place below
    leaves = [Tensor(a, requires_grad=True) for a in inputs.values()]
    out = apply(*leaves)
    weights = rng.normal(size=out.data.shape)
    store.zero_grads()
    out.backward(weights)

    def forward() -> float:
        return float((apply(*map(Tensor, inputs.values())).data * weights).sum())

    analytic = {name: store[name].grad.copy() for name in params}
    numeric = {name: central_difference(forward, store[name].data, step) for name in params}
    for (name, a), leaf in zip(inputs.items(), leaves):
        analytic[name] = leaf.grad
        numeric[name] = central_difference(forward, a, step)
    return compare_gradients(analytic, numeric, tolerance)


def run_grad_check(
    trials: int = 2,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GradCheckReport:
    """The full gradient suite over a set of small encoder configurations."""
    if trials < 0 or not 0 < step < np.inf or not 0 < tolerance < np.inf:
        raise ValidationError(f"need trials >= 0 and a positive finite step and tolerance, "
                              f"got {trials}, {step} and {tolerance}")
    report = GradCheckReport(tolerance=tolerance)
    configs = [
        GraphEncoderConfig(layers=1, hidden=4, heads=1, positional_dim=2, text_dim=3),
        GraphEncoderConfig(layers=2, hidden=8, heads=2, positional_dim=3, text_dim=5),
    ]
    for trial in range(trials):
        config = configs[trial % len(configs)]
        report.add(f"encoder(L={config.layers},D={config.hidden},trial={trial})",
                   check_gradients("encoder", config, (3,), seed + trial, step, tolerance))
    config = configs[-1]
    report.add(f"encoder(L={config.layers},D={config.hidden},padded batch)",
               check_gradients("encoder", config, (3, 2), seed, step, tolerance))
    for op in FUSED_OPS:
        report.add(f"fused {op}", check_gradients(op, config, (3, 1, 2), seed, step, tolerance))
    return report
