"""Command-line entry point.

One subcommand per pipeline stage; every run writes its resolved
configuration, a manifest of input-file checksums, and the stage's artifacts
into the chosen output directory, so identical manifests imply identical
outputs. A command line is ``tagsum COMMAND [--config FILE] [--key value]...``,
each key a dotted config key or a shorthand in ``ALIASES``; a key given twice
takes its later value. Exit codes: 0 success, 2 usage, 3 validation (a bad
value too), 4 acceptance-gate failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .adapt import (
    evaluate_link_prediction,
    evaluate_node_classification,
    load_label_prompt_asset,
    make_few_shot_split,
    prompt_tune,
)
from .atomic import write_csv, write_text
from .encoder import (
    GraphEncoderConfig,
    load_checkpoint,
    preset_config,
)
from .errors import NonFiniteLossError, TagsumError, ValidationError
from .gradcheck import run_grad_check
from .graphml import DOMAIN_SCHEMAS, GraphMLSchema
from .graphs import SamplerConfig, load_graph, rwr_batch
from .pretrain import OptimizerConfig, PerturbationState, pretrain
from .textenc import HashTextEncoder, TableTextEncoder, attach_features
from .theory import verify_proposition, verify_theorem_bound

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_GATE = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "out_dir": "runs/out",
    "paths": {
        "graph": None,
        "pairs": None,
        "checkpoint": None,
        "labels": None,
    },
    "sampler": dataclasses.asdict(SamplerConfig()),
    "encoder": {
        "preset": None,
        "layers": 2,
        "hidden": 32,
        "heads": 4,
        "positional_dim": 8,
        "text_dim": 16,
    },
    "text_encoder": {
        "impl": "hash",
        "table_path": None,
    },
    "optimizer": dataclasses.asdict(OptimizerConfig()),
    "pretrain": {
        "epochs": 30,
        "batch_size": 16,
        "temperature": 0.1,
        **dataclasses.asdict(PerturbationState()),
        "checkpoint_every": 1,
    },
    "corpus": {
        "domain": "academic",
        "num_seeds": None,
        "truncate_chars": 500,
        "retries": 2,
        "max_in_flight": 1,
        "mock": True,
        **dataclasses.asdict(corpus_mod.LlmClientConfig()),
    },
    "adapt": {
        "test_fraction": 0.2,
        "link_test_fraction": 0.5,
        "runs": 5,
        "shots": 5,
        "tune_epochs": 100,
        "tune_lr": 1e-4,
        "tune_weight_decay": 1e-5,
        "temperature": 0.1,
    },
    "theory": {
        "zeta": 0.04,
        "samples": 1_000_000,
        "grid_samples": 100_000,
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "classifier_grid": [[1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [1.0, 0.2], [1.0, -0.2]],
        "scales": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "truncation_radius": 6.0,
    },
    "gradcheck": {
        "trials": 2,
        "step": 1e-5,
        "tolerance": 1e-4,
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`UsageError`, so that it ends in
    the same JSON error as every other usage fault."""

    def error(self, message):
        raise UsageError(message)


# The type a value must have where the default is unset (None).
UNSET_TYPES = {
    "paths.graph": str, "paths.pairs": str, "paths.checkpoint": str, "paths.labels": str,
    "encoder.preset": str, "text_encoder.table_path": str, "corpus.num_seeds": int,
}


def _expected_type(where: str, default) -> type:
    return UNSET_TYPES[where] if default is None else type(default)


def _check_type(where: str, default, value) -> None:
    """Reject a value whose JSON type differs from the default's. An int may
    stand for a float, null resets an unset key, and list items are checked
    against the default's first item."""
    expected = _expected_type(where, default)
    if value is None and default is None:
        return
    if not (type(value) is expected or (expected is float and type(value) is int)):
        raise ValidationError(
            f"config key {where!r}: expected {expected.__name__}, got {value!r}")
    if expected is list and default:
        for i, item in enumerate(value):
            _check_type(f"{where}[{i}]", default[0], item)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key {where!r}")
        _check_type(where, base[key], value)
        out[key] = _merge(base[key], value, where) if isinstance(value, dict) else value
    return out


def _apply_dotted(config: dict, dotted: str, raw_value: str) -> None:
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ValidationError(f"unknown config key {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if leaf not in node:
        raise ValidationError(f"unknown config key {dotted!r}")
    value = raw_value
    if _expected_type(dotted, node[leaf]) is not str:
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            pass
    _check_type(dotted, node[leaf], value)
    node[leaf] = _merge(node[leaf], value, dotted) if isinstance(value, dict) else value


def load_config(config_path: str | None, overrides: list[tuple[str, str]]) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValidationError(f"config file {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValidationError(f"config file {config_path}: expected a JSON object")
        config = _merge(config, file_cfg)
    for dotted, value in overrides:
        _apply_dotted(config, dotted, value)
    return config


# Shorthand flags, each an alias of one config key.
ALIASES = {"out": "out_dir", "graph": "paths.graph", "pairs": "paths.pairs",
           "checkpoint": "paths.checkpoint", "labels": "paths.labels",
           "zeta": "theory.zeta", "shots": "adapt.shots"}


def _parse_overrides(rest: list[str]) -> list[tuple[str, str]]:
    """(dotted key, raw value) for each ``--key value`` pair, in order."""
    overrides = []
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--") or "=" in token or i + 1 >= len(rest):
            raise UsageError(f"unexpected argument {token!r}; overrides are --dotted.key value")
        overrides.append((ALIASES.get(token[2:], token[2:]), rest[i + 1]))
        i += 2
    return overrides


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RunDir:
    """Output directory with the reproducibility artifacts every run writes."""

    def __init__(self, out_dir: str, config: dict):
        self.path = Path(out_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.inputs: dict[str, str] = {}
        write_text(self.path / "resolved_config.json",
                   json.dumps(config, indent=2, sort_keys=True) + "\n")

    def record_input(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = _sha256_file(path)
        return path

    def finish(self) -> None:
        write_text(self.path / "manifest.json",
                   json.dumps({"inputs": self.inputs}, indent=2, sort_keys=True) + "\n")


def _encoder_config(cfg: dict) -> GraphEncoderConfig:
    enc = cfg["encoder"]
    if enc["preset"]:
        return preset_config(enc["preset"], positional_dim=enc["positional_dim"],
                             text_dim=enc["text_dim"], heads=enc["heads"])
    return GraphEncoderConfig(
        layers=enc["layers"], hidden=enc["hidden"], heads=enc["heads"],
        positional_dim=enc["positional_dim"], text_dim=enc["text_dim"],
    )


def _text_encoder(cfg: dict, text_dim: int):
    """The configured text encoder, as wide as the graph encoder's
    ``text_dim``; a table of another width is rejected."""
    t = cfg["text_encoder"]
    if t["impl"] == "hash":
        return HashTextEncoder(dim=text_dim)
    if t["impl"] == "table":
        if not t["table_path"]:
            raise ValidationError("text_encoder.table_path required for table impl")
        encoder = TableTextEncoder.from_file(t["table_path"])
        if encoder.dim != text_dim:
            raise ValidationError(f"text_encoder table vectors have dim {encoder.dim}, "
                                  f"the graph encoder's text_dim is {text_dim}")
        return encoder
    raise ValidationError(f"unknown text encoder impl {t['impl']!r}")


def _require_path(cfg: dict, key: str) -> str:
    value = cfg["paths"][key]
    if not value:
        raise UsageError(f"paths.{key} is required for this command")
    return value


def _read_graph(cfg: dict, run: RunDir):
    """The ``--graph`` file; every stage needs at least one node."""
    path = run.record_input(_require_path(cfg, "graph"))
    graph = load_graph(path)
    if graph.num_nodes == 0:
        raise ValidationError(f"graph {path} has no nodes")
    return graph


def _num_seeds(cfg: dict, graph) -> int:
    """How many seeds, from node 0 on, a corpus command asks for: every node
    when ``corpus.num_seeds`` is unset."""
    count = cfg["corpus"]["num_seeds"]
    if count is None:
        return graph.num_nodes
    if count < 1:
        raise ValidationError(f"corpus.num_seeds must be >= 1, got {count}")
    return count


def cmd_sample(cfg: dict, run: RunDir) -> int:
    graph = _read_graph(cfg, run)
    sampler = SamplerConfig(**cfg["sampler"])
    schema: GraphMLSchema = DOMAIN_SCHEMAS[cfg["corpus"]["domain"]]
    seeds = range(min(_num_seeds(cfg, graph), graph.num_nodes))
    out = run.path / "subgraphs"
    out.mkdir(exist_ok=True)
    walks = rwr_batch(graph, seeds, [sampler.rng_seed] * len(seeds), sampler, None)
    documents = corpus_mod.subgraph_documents(graph, schema, seeds, walks,
                                              cfg["corpus"]["truncate_chars"])
    for seed, (_, doc) in zip(seeds, documents):
        write_text(out / f"seed{seed}.graphml", doc)
    print(f"wrote {len(seeds)} subgraph documents to {out}")
    return EXIT_OK


def cmd_gen_corpus(cfg: dict, run: RunDir) -> int:
    graph = _read_graph(cfg, run)
    c = cfg["corpus"]
    schema = DOMAIN_SCHEMAS[c["domain"]]
    seeds = range(_num_seeds(cfg, graph))
    if c["mock"]:
        client = corpus_mod.MockLlmClient()
    else:
        fields = dataclasses.fields(corpus_mod.LlmClientConfig)
        client = corpus_mod.HttpLlmClient(
            corpus_mod.LlmClientConfig(**{f.name: c[f.name] for f in fields}))
    out_path = run.path / "pairs.jsonl"
    report = corpus_mod.generate_pairs(
        graph, SamplerConfig(**cfg["sampler"]), schema, c["domain"], client, out_path,
        seeds=seeds, retries=c["retries"], truncate_chars=c["truncate_chars"],
        max_in_flight=c["max_in_flight"],
        failure_manifest_path=run.path / "failures.jsonl",
    )
    print(f"pairs written: {len(report.written)}  skipped existing: "
          f"{report.skipped_existing}  failures: {len(report.failures)}")
    return EXIT_OK


def cmd_pretrain(cfg: dict, run: RunDir) -> int:
    p = cfg["pretrain"]
    if p["epochs"] < 1:                        # the library allows 0: a checkpoint of the init
        raise ValidationError(f"pretrain.epochs must be >= 1, got {p['epochs']}")
    graph = _read_graph(cfg, run)
    pairs = corpus_mod.read_pairs(run.record_input(_require_path(cfg, "pairs")))
    enc_config = _encoder_config(cfg)
    text_encoder = _text_encoder(cfg, enc_config.text_dim)
    graph = attach_features(graph, text_encoder)
    # A float norm_p, so that an integer one gives the same checkpoint header.
    pert = PerturbationState(epsilon=p["epsilon"], norm_p=float(p["norm_p"]),
                             inner_steps=p["inner_steps"])
    result = pretrain(
        pairs, {graph.graph_id: graph}, text_encoder, enc_config,
        OptimizerConfig(**cfg["optimizer"]), pert, epochs=p["epochs"],
        batch_size=p["batch_size"], seed=cfg["seed"], temperature=p["temperature"],
        sampler_cfg=SamplerConfig(**cfg["sampler"]),
        out_dir=run.path, checkpoint_every=p["checkpoint_every"],
    )
    print(f"checkpoint: {result.checkpoint_path}  final loss: {result.metrics[-1]['loss']:.6f}")
    return EXIT_OK


def _load_eval_inputs(cfg: dict, run: RunDir):
    store, enc_config, _ = load_checkpoint(
        run.record_input(_require_path(cfg, "checkpoint")))
    text_encoder = _text_encoder(cfg, enc_config.text_dim)
    graph = _read_graph(cfg, run)
    graph = attach_features(graph, text_encoder)
    return store, enc_config, text_encoder, graph


REPORT_COLUMNS = ("dataset", "task", "shots", "seed", "metric", "value")


def cmd_eval_nc(cfg: dict, run: RunDir) -> int:
    if cfg["adapt"]["shots"] != 0:
        raise UsageError("eval-nc is zero-shot; use the tune command for shots > 0")
    store, enc_config, text_encoder, graph = _load_eval_inputs(cfg, run)
    labels = load_label_prompt_asset(
        run.record_input(_require_path(cfg, "labels")), text_encoder)
    result = evaluate_node_classification(
        store, enc_config, graph, labels, SamplerConfig(**cfg["sampler"]),
        test_fraction=cfg["adapt"]["test_fraction"],
        num_runs=cfg["adapt"]["runs"], base_seed=cfg["seed"],
    )
    rows = [
        {"dataset": graph.graph_id, "task": "node-classification", "shots": 0,
         "seed": r.seed, "metric": "accuracy", "value": r.value}
        for r in result.runs
    ]
    write_csv(run.path / "report.csv", REPORT_COLUMNS, rows)
    print(f"zero-shot accuracy: {result.mean:.4f} +/- {result.std:.4f} "
          f"({len(result.runs)} runs)")
    return EXIT_OK


def cmd_eval_lp(cfg: dict, run: RunDir) -> int:
    store, enc_config, _, graph = _load_eval_inputs(cfg, run)
    result = evaluate_link_prediction(
        store, enc_config, graph, SamplerConfig(**cfg["sampler"]),
        test_fraction=cfg["adapt"]["link_test_fraction"],
        num_runs=cfg["adapt"]["runs"], base_seed=cfg["seed"],
    )
    rows = [
        {"dataset": graph.graph_id, "task": "link-prediction", "shots": 0,
         "seed": r.seed, "metric": "auc", "value": r.value}
        for r in result.runs
    ]
    write_csv(run.path / "report.csv", REPORT_COLUMNS, rows)
    print(f"link AUC: {result.mean:.4f} +/- {result.std:.4f} ({len(result.runs)} runs)")
    return EXIT_OK


def cmd_tune(cfg: dict, run: RunDir) -> int:
    a = cfg["adapt"]
    if a["shots"] < 1:
        raise UsageError("tune requires shots >= 1; use eval-nc for zero-shot")
    if a["runs"] < 1:
        raise ValidationError(f"number of runs must be >= 1, got {a['runs']!r}")
    store, enc_config, text_encoder, graph = _load_eval_inputs(cfg, run)
    labels = load_label_prompt_asset(
        run.record_input(_require_path(cfg, "labels")), text_encoder)
    rows = []
    tuned_values = []
    for seed in range(cfg["seed"], cfg["seed"] + a["runs"]):
        split = make_few_shot_split(graph, shots=a["shots"], seed=seed)
        result = prompt_tune(
            store, enc_config, graph, split, labels,
            epochs=a["tune_epochs"], lr=a["tune_lr"],
            weight_decay=a["tune_weight_decay"], temperature=a["temperature"],
            sampler_cfg=SamplerConfig(**cfg["sampler"]), text_encoder=text_encoder,
        )
        if not result.towers_frozen:
            raise ValidationError("tower checksums changed during prompt tuning")
        result.prompt.save(run.path / f"prompt_seed{seed}.json")
        rows.append({"dataset": graph.graph_id, "task": "prompt-tuning",
                     "shots": a["shots"], "seed": seed, "metric": "accuracy",
                     "value": result.tuned_accuracy})
        rows.append({"dataset": graph.graph_id, "task": "zero-shot-baseline",
                     "shots": 0, "seed": seed, "metric": "accuracy",
                     "value": result.zero_shot_accuracy})
        tuned_values.append(result.tuned_accuracy)
    write_csv(run.path / "report.csv", REPORT_COLUMNS, rows)
    print(f"tuned accuracy mean: {float(np.mean(tuned_values)):.4f} "
          f"({a['shots']}-shot, {a['runs']} seeds)")
    return EXIT_OK


def cmd_theory(cfg: dict, run: RunDir) -> int:
    t = cfg["theory"]
    proposition = verify_proposition(t["zeta"], n_samples=t["samples"],
                                     seed=cfg["seed"])
    theorem = verify_theorem_bound(
        t["t_grid"], [tuple(c) for c in t["classifier_grid"]], t["scales"],
        n_samples=t["grid_samples"], seed=cfg["seed"],
        truncation_radius=t["truncation_radius"],
    )
    text = proposition.to_text() + "\n\n" + theorem.to_text() + "\n"
    write_text(run.path / "theory_report.txt", text)
    print(text, end="")
    if not (proposition.passed and theorem.passed):
        return EXIT_GATE
    return EXIT_OK


def cmd_grad_check(cfg: dict, run: RunDir) -> int:
    g = cfg["gradcheck"]
    report = run_grad_check(trials=g["trials"], seed=cfg["seed"],
                            step=g["step"], tolerance=g["tolerance"])
    text = report.to_text() + "\n"
    write_text(run.path / "gradcheck_report.txt", text)
    print(text, end="")
    return EXIT_OK if report.passed else EXIT_GATE


COMMANDS = {
    "sample": cmd_sample,
    "gen-corpus": cmd_gen_corpus,
    "pretrain": cmd_pretrain,
    "eval-nc": cmd_eval_nc,
    "eval-lp": cmd_eval_lp,
    "tune": cmd_tune,
    "theory": cmd_theory,
    "grad-check": cmd_grad_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tagsum",
        description="Graph-summary contrastive pretraining and adaptation toolkit",
        epilog="Every other flag follows the command as --dotted.key value; shorthands: "
               + ", ".join(f"--{alias} for --{key}" for alias, key in ALIASES.items()),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
    except SystemExit:                         # --help
        return EXIT_OK
    except UsageError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_USAGE}), file=sys.stderr)
        return EXIT_USAGE

    try:
        config = load_config(args.config, _parse_overrides(rest))
        if config["seed"] < 0:
            raise ValidationError(f"seed must be >= 0, got {config['seed']}")
        if config["corpus"]["domain"] not in DOMAIN_SCHEMAS:
            raise ValidationError(f"unknown corpus.domain {config['corpus']['domain']!r}; "
                                  f"choose from {sorted(DOMAIN_SCHEMAS)}")

        run = RunDir(config["out_dir"], config)
        code = COMMANDS[args.command](config, run)
        run.finish()
        if code != EXIT_OK:
            print(json.dumps({"error": f"{args.command} gate failed",
                              "code": code}), file=sys.stderr)
        return code
    except UsageError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_USAGE}), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:                     # a missing file, a directory where a file belongs
        print(json.dumps({"error": f"bad path: {exc}", "code": EXIT_USAGE}),
              file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLossError as exc:
        dump_path = Path(config["out_dir"]) / "nonfinite_dump.json"
        write_text(dump_path, json.dumps(exc.dump, indent=2) + "\n")
        print(json.dumps({"error": str(exc), "code": EXIT_VALIDATION,
                          "dump": str(dump_path)}), file=sys.stderr)
        return EXIT_VALIDATION
    except TagsumError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_VALIDATION}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
