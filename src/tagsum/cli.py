"""Command-line entry point.

One subcommand per pipeline stage; every run writes its resolved
configuration, a manifest of input-file checksums, and the stage's artifacts
into the chosen output directory, so identical manifests imply identical
outputs. Exit codes: 0 success, 2 usage, 3 validation, 4 acceptance-gate
failure.
"""

from __future__ import annotations

import argparse
import copy
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
from .atomic import replacing
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
    "sampler": {
        "restart_prob": 0.5,
        "node_budget": 16,
        "max_steps": 256,
        "rng_seed": 0,
    },
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
        "dim": 16,
        "table_path": None,
    },
    "optimizer": {
        "lr": 1e-5,
        "weight_decay": 1e-5,
    },
    "pretrain": {
        "epochs": 30,
        "batch_size": 16,
        "temperature": 0.1,
        "epsilon": 1e-2,
        "inner_steps": 3,
        "norm_p": 2.0,
        "checkpoint_every": 1,
    },
    "corpus": {
        "domain": "academic",
        "num_seeds": None,
        "truncate_chars": 500,
        "retries": 2,
        "max_in_flight": 1,
        "mock": True,
        "endpoint": "",
        "model": "",
        "max_tokens": 500,
        "timeout": 30.0,
        "api_key_env": "TAGSUM_API_KEY",
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


def _parse_overrides(rest: list[str]) -> list[tuple[str, str]]:
    overrides = []
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--") or i + 1 >= len(rest):
            raise UsageError(f"unexpected argument {token!r}; overrides are --dotted.key value")
        overrides.append((token[2:], rest[i + 1]))
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
        with replacing(self.path / "resolved_config.json") as temp:
            temp.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

    def record_input(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = _sha256_file(path)
        return path

    def finish(self) -> None:
        with replacing(self.path / "manifest.json") as temp:
            temp.write_text(json.dumps({"inputs": self.inputs}, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")


def _encoder_config(cfg: dict) -> GraphEncoderConfig:
    enc = cfg["encoder"]
    if enc["preset"]:
        return preset_config(enc["preset"], positional_dim=enc["positional_dim"],
                             text_dim=enc["text_dim"], heads=enc["heads"])
    return GraphEncoderConfig(
        layers=enc["layers"], hidden=enc["hidden"], heads=enc["heads"],
        positional_dim=enc["positional_dim"], text_dim=enc["text_dim"],
    )


def _sampler_config(cfg: dict) -> SamplerConfig:
    s = cfg["sampler"]
    return SamplerConfig(restart_prob=s["restart_prob"], node_budget=s["node_budget"],
                         max_steps=s["max_steps"], rng_seed=s["rng_seed"])


def _text_encoder(cfg: dict):
    t = cfg["text_encoder"]
    if t["impl"] == "hash":
        return HashTextEncoder(dim=t["dim"])
    if t["impl"] == "table":
        if not t["table_path"]:
            raise ValidationError("text_encoder.table_path required for table impl")
        return TableTextEncoder.from_file(t["table_path"])
    raise ValidationError(f"unknown text encoder impl {t['impl']!r}")


def _require_path(cfg: dict, key: str) -> str:
    value = cfg["paths"][key]
    if not value:
        raise UsageError(f"paths.{key} is required for this command")
    return value


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
    graph = load_graph(run.record_input(_require_path(cfg, "graph")))
    sampler = _sampler_config(cfg)
    schema: GraphMLSchema = DOMAIN_SCHEMAS[cfg["corpus"]["domain"]]
    seeds = range(min(_num_seeds(cfg, graph), graph.num_nodes))
    out = run.path / "subgraphs"
    out.mkdir(exist_ok=True)
    walks = rwr_batch(graph, seeds, [sampler.rng_seed] * len(seeds), sampler, None)
    documents = corpus_mod.subgraph_documents(graph, schema, seeds, walks,
                                              cfg["corpus"]["truncate_chars"])
    for seed, (_, doc) in zip(seeds, documents):
        (out / f"seed{seed}.graphml").write_text(doc, encoding="utf-8")
    print(f"wrote {len(seeds)} subgraph documents to {out}")
    return EXIT_OK


def cmd_gen_corpus(cfg: dict, run: RunDir) -> int:
    graph = load_graph(run.record_input(_require_path(cfg, "graph")))
    c = cfg["corpus"]
    schema = DOMAIN_SCHEMAS[c["domain"]]
    seeds = range(_num_seeds(cfg, graph))
    if c["mock"]:
        client = corpus_mod.MockLlmClient()
    else:
        client = corpus_mod.HttpLlmClient(corpus_mod.LlmClientConfig(
            endpoint=c["endpoint"], model=c["model"], max_tokens=c["max_tokens"],
            timeout=c["timeout"], api_key_env=c["api_key_env"],
        ))
    out_path = run.path / "pairs.jsonl"
    report = corpus_mod.generate_pairs(
        graph, _sampler_config(cfg), schema, c["domain"], client, out_path,
        seeds=seeds, retries=c["retries"], truncate_chars=c["truncate_chars"],
        max_in_flight=c["max_in_flight"],
        failure_manifest_path=run.path / "failures.jsonl",
    )
    print(f"pairs written: {len(report.written)}  skipped existing: "
          f"{report.skipped_existing}  failures: {len(report.failures)}")
    return EXIT_OK


def cmd_pretrain(cfg: dict, run: RunDir) -> int:
    graph = load_graph(run.record_input(_require_path(cfg, "graph")))
    pairs = corpus_mod.read_pairs(run.record_input(_require_path(cfg, "pairs")))
    text_encoder = _text_encoder(cfg)
    graph = attach_features(graph, text_encoder)
    p = cfg["pretrain"]
    pert = None
    if p["epsilon"] > 0:
        pert = PerturbationState(epsilon=p["epsilon"], norm_p=float(p["norm_p"]),
                                 inner_steps=p["inner_steps"])
    result = pretrain(
        pairs, {graph.graph_id: graph}, text_encoder, _encoder_config(cfg),
        OptimizerConfig(lr=cfg["optimizer"]["lr"],
                        weight_decay=cfg["optimizer"]["weight_decay"]),
        pert, epochs=p["epochs"], batch_size=p["batch_size"], seed=cfg["seed"],
        temperature=p["temperature"], sampler_cfg=_sampler_config(cfg),
        out_dir=run.path, checkpoint_every=p["checkpoint_every"],
    )
    final = result.metrics[-1]["loss"] if result.metrics else float("nan")
    print(f"checkpoint: {result.checkpoint_path}  final loss: {final:.6f}")
    return EXIT_OK


def _load_eval_inputs(cfg: dict, run: RunDir):
    store, enc_config, _ = load_checkpoint(
        run.record_input(_require_path(cfg, "checkpoint")))
    text_encoder = _text_encoder(cfg)
    graph = load_graph(run.record_input(_require_path(cfg, "graph")))
    graph = attach_features(graph, text_encoder)
    return store, enc_config, text_encoder, graph


def _write_report_csv(path: Path, rows: list[dict]) -> None:
    import csv

    with replacing(path) as temp, open(temp, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["dataset", "task", "shots", "seed", "metric", "value"])
        writer.writeheader()
        writer.writerows(rows)


def cmd_eval_nc(cfg: dict, run: RunDir) -> int:
    if cfg["adapt"]["shots"] != 0:
        raise UsageError("eval-nc is zero-shot; use the tune command for shots > 0")
    store, enc_config, text_encoder, graph = _load_eval_inputs(cfg, run)
    labels = load_label_prompt_asset(
        run.record_input(_require_path(cfg, "labels")), text_encoder)
    result = evaluate_node_classification(
        store, enc_config, graph, labels, _sampler_config(cfg),
        test_fraction=cfg["adapt"]["test_fraction"],
        num_runs=cfg["adapt"]["runs"], base_seed=cfg["seed"],
    )
    rows = [
        {"dataset": graph.graph_id, "task": "node-classification", "shots": 0,
         "seed": r.seed, "metric": "accuracy", "value": r.value}
        for r in result.runs
    ]
    _write_report_csv(run.path / "report.csv", rows)
    print(f"zero-shot accuracy: {result.mean:.4f} +/- {result.std:.4f} "
          f"({len(result.runs)} runs)")
    return EXIT_OK


def cmd_eval_lp(cfg: dict, run: RunDir) -> int:
    store, enc_config, _, graph = _load_eval_inputs(cfg, run)
    result = evaluate_link_prediction(
        store, enc_config, graph, _sampler_config(cfg),
        test_fraction=cfg["adapt"]["link_test_fraction"],
        num_runs=cfg["adapt"]["runs"], base_seed=cfg["seed"],
    )
    rows = [
        {"dataset": graph.graph_id, "task": "link-prediction", "shots": 0,
         "seed": r.seed, "metric": "auc", "value": r.value}
        for r in result.runs
    ]
    _write_report_csv(run.path / "report.csv", rows)
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
            sampler_cfg=_sampler_config(cfg), text_encoder=text_encoder,
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
    _write_report_csv(run.path / "report.csv", rows)
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
    (run.path / "theory_report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    if not (proposition.passed and theorem.passed):
        return EXIT_GATE
    return EXIT_OK


def cmd_grad_check(cfg: dict, run: RunDir) -> int:
    g = cfg["gradcheck"]
    report = run_grad_check(trials=g["trials"], seed=cfg["seed"],
                            step=g["step"], tolerance=g["tolerance"])
    text = report.to_text() + "\n"
    (run.path / "gradcheck_report.txt").write_text(text, encoding="utf-8")
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
    parser = argparse.ArgumentParser(
        prog="tagsum",
        description="Graph-summary contrastive pretraining and adaptation toolkit",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (overrides config out_dir)")
    parser.add_argument("--seed", type=int, help="global seed override")
    parser.add_argument("--graph", help="shorthand for --paths.graph")
    parser.add_argument("--pairs", help="shorthand for --paths.pairs")
    parser.add_argument("--checkpoint", help="shorthand for --paths.checkpoint")
    parser.add_argument("--labels", help="shorthand for --paths.labels")
    parser.add_argument("--zeta", type=float, help="shorthand for --theory.zeta")
    parser.add_argument("--shots", type=int, help="shorthand for --adapt.shots")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        overrides = _parse_overrides(rest)
        config = load_config(args.config, overrides)
        if args.out:
            config["out_dir"] = args.out
        if args.seed is not None:
            config["seed"] = args.seed
        for key in ("graph", "pairs", "checkpoint", "labels"):
            if getattr(args, key) is not None:
                config["paths"][key] = getattr(args, key)
        if args.zeta is not None:
            config["theory"]["zeta"] = args.zeta
        if args.shots is not None:
            config["adapt"]["shots"] = args.shots

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
    except FileNotFoundError as exc:
        print(json.dumps({"error": f"missing input: {exc}", "code": EXIT_USAGE}),
              file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteLossError as exc:
        dump_path = Path(config["out_dir"]) / "nonfinite_dump.json"
        dump_path.write_text(json.dumps(exc.dump, indent=2) + "\n", encoding="utf-8")
        print(json.dumps({"error": str(exc), "code": EXIT_VALIDATION,
                          "dump": str(dump_path)}), file=sys.stderr)
        return EXIT_VALIDATION
    except TagsumError as exc:
        print(json.dumps({"error": str(exc), "code": EXIT_VALIDATION}), file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
