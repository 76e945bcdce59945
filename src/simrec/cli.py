"""Command-line interface: data generation, training, evaluation, prediction,
and graph inspection.

Configuration can come from a JSON file (--config), from the environment
(SIMREC_SEED, SIMREC_OUT_DIR), and from flags; flags win over the
environment, which wins over the file. Unknown config-file keys are
rejected. Diagnostics go to stderr and the exit code is 0 only on success.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import distill, evalkit
from . import tensorcore as tc
from .corpus import (
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    load_corpus,
    read_json,
    read_record,
    save_corpus,
    split_folds,
)
from .distill import TrainConfig, build_bundle, select_best, train
from .encoder import EncoderConfig
from .heads import PREDICT_CHUNK, predict_batch
from .hetgraph import GraphOptions, build_graph, to_dot


@dataclass
class RunConfig:
    # encoder
    d_model: int = 300
    n_selfattn_layers: int = 2
    n_gat_layers: int = 2
    edge_emb_dim: int = 50
    label_emb_dim: int = 100
    leaky_slope: float = 0.01
    max_tokens: int = 100
    max_positions: int = 128
    # training
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3
    alpha: float = 0.1
    aux_weight: float = 1.0
    seed: int = 0
    lambda_mode: str = "increase"
    lambda_fixed: float = 1.0
    share_encoder: bool = False
    # graph construction
    top_k_deprels: int = 8
    min_freq: int = 1
    # ablations
    no_dependency: bool = False
    no_pos: bool = False
    no_definitions: bool = False
    no_subsentence_nodes: bool = False
    disable_model: tuple[str, ...] = ()

    def encoder_config(self) -> EncoderConfig:
        return _shared_fields(self, EncoderConfig, use_gloss_fusion=not self.no_definitions)

    def train_config(self) -> TrainConfig:
        return _shared_fields(self, TrainConfig)

    def graph_options(self) -> GraphOptions:
        return _shared_fields(self, GraphOptions)

    def validate(self) -> None:
        self.train_config().validate()
        self.encoder_config().validate()
        self.graph_options().validate()
        distill.check_label_emb_dim(self.label_emb_dim)
        distill.check_disabled_models(self.disable_model)
        if self.min_freq < 1:
            raise ValueError(f"RunConfig: min_freq must be at least 1, got {self.min_freq!r}")


def _shared_fields(cfg: RunConfig, cls, **derived):
    """A ``cls`` holding every field it shares with ``cfg``, plus ``derived``."""
    shared = {f.name: getattr(cfg, f.name) for f in fields(cls) if hasattr(cfg, f.name)}
    return cls(**shared, **derived)


# how the flag of each field type parses; every flag defaults to None: "not given"
_FLAG_TYPES = {
    "int": {"type": int},
    "float": {"type": float},
    "bool": {"action": "store_true"},
    "str": {"type": str},
    "tuple[str, ...]": {"action": "append", "type": str},
}
# flag settings beyond the type's, by field
_FLAG_EXTRAS = {
    "lambda_mode": {"choices": ("increase", "decrease", "fixed")},
    "disable_model": {"choices": distill.MODEL_ORDER,
                      "help": "drop a model from the bundle (repeatable)"},
}


def _env_seed(env, default: int) -> int:
    """SIMREC_SEED from ``env`` as an integer, or ``default`` when it is unset."""
    if "SIMREC_SEED" not in env:
        return default
    try:
        seed = int(env["SIMREC_SEED"])
    except ValueError as exc:
        raise ValueError(f"SIMREC_SEED must be an integer: {exc}") from exc
    if seed < 0:
        raise ValueError(f"SIMREC_SEED must be non-negative, got {seed}")
    return seed


def _seed_flag_or_env(args) -> int:
    """``--seed`` when given, else SIMREC_SEED, else 0."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    return args.seed if args.seed is not None else _env_seed(os.environ, 0)


def load_run_config(
    config_path: str | None, overrides: dict, env: dict | None = None
) -> RunConfig:
    """Defaults, then config file, then environment, then explicit flags."""
    kinds = RunConfig.__annotations__
    values = read_record(read_json(config_path), kinds, config_path,
                         optional=kinds) if config_path else {}
    values["seed"] = _env_seed(os.environ if env is None else env,
                               values.get("seed", RunConfig.seed))
    given = {key: value for key, value in overrides.items() if value is not None}
    if not given.keys() <= kinds.keys():
        raise ValueError(f"unknown config overrides {sorted(given.keys() - kinds.keys())}")
    values.update(given)
    return RunConfig(**{key: tuple(value) if isinstance(value, list) else value
                        for key, value in values.items()})


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("SIMREC_OUT_DIR")
    if not out:
        raise ValueError("no output directory: pass --out-dir or set SIMREC_OUT_DIR")
    return out


def _given_flags(args, cls) -> dict:
    """The values of the flags for ``cls``'s fields that the command line set."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name) is not None}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    corpus = generate_synthetic(
        SyntheticConfig(n_sentences=args.n, seed=_seed_flag_or_env(args),
                        noise_rate=args.noise)
    )
    save_corpus(args.out, corpus)
    n_simile = sum(1 for s in corpus if s.is_simile)
    print(json.dumps(
        {"sentences": len(corpus), "similes": n_simile,
         "literals": len(corpus) - n_simile, "path": args.out},
        sort_keys=True,
    ))
    return 0


def cmd_train(args) -> int:
    given = _given_flags(args, RunConfig)
    cfg = load_run_config(args.config, given)
    out_dir = _out_dir(args)
    # Checked before max_tokens caps the corpora and before any output. A fault
    # the flags make alone (with no config file, any fault) names no file.
    try:
        cfg.validate()
    except ValueError as exc:
        RunConfig(**given).validate()
        raise ValueError(f"{args.config}: {exc}") from exc
    enc_config = cfg.encoder_config()
    train_sents = load_corpus(args.train, enc_config.max_tokens)
    dev_sents = load_corpus(args.dev, enc_config.max_tokens)
    if not dev_sents:
        raise ValueError(f"{args.dev}: empty dev corpus; model selection needs dev sentences")
    vocab = build_vocab(train_sents, min_freq=cfg.min_freq)
    opts = cfg.graph_options()
    rng = np.random.default_rng(cfg.seed)
    bundle = build_bundle(
        vocab, enc_config, rng,
        label_emb_dim=cfg.label_emb_dim,
        disabled_models=cfg.disable_model,
        share_encoder=cfg.share_encoder,
        top_k_deprels=cfg.top_k_deprels,
    )
    os.makedirs(out_dir, exist_ok=True)
    # An older model in out_dir must not stay loadable next to a run that
    # stops before save_bundle.
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, distill.BUNDLE_META))
    result = train(
        bundle, train_sents, dev_sents, cfg.train_config(),
        graph_options=opts,
        log_path=os.path.join(out_dir, "train_log.jsonl"),
    )
    selected, scores = select_best(bundle, dev_sents, opts)
    score_record = {name: evalkit.report_record(tasks) for name, tasks in scores.items()}
    distill.save_bundle(bundle, out_dir, opts, selected=selected,
                        selected_scores=score_record)
    print(json.dumps(
        {"selected": selected, "epochs": len(result.epoch_logs),
         "dev": score_record, "out_dir": out_dir},
        sort_keys=True,
    ))
    return 0


def _score_sentences(model, sents, vocab, opts):
    graphs = [build_graph(s, vocab, opts) for s in sents]
    return distill.evaluate_model(model, sents, graphs)


def cmd_evaluate(args) -> int:
    name, model, vocab, opts = distill.load_selected(args.model_dir)
    sents = load_corpus(args.data, model.config.max_tokens)
    if args.folds is not None:
        fold_scores = [_score_sentences(model, test, vocab, opts)
                       for test in split_folds(sents, args.folds, seed=_seed_flag_or_env(args))]
        agg = {
            task: evalkit.aggregate_folds([fs[task] for fs in fold_scores])
            for task in ("classification", "extraction")
        }
        print(json.dumps(
            {"model": name, "folds": args.folds,
             "per_fold": [evalkit.report_record(fs) for fs in fold_scores],
             "aggregate": agg},
            sort_keys=True,
        ))
        for task in ("classification", "extraction"):
            print(f"{task} across {args.folds} folds:")
            print(evalkit.render_fold_report(agg[task]))
        return 0
    scores = _score_sentences(model, sents, vocab, opts)
    print(json.dumps(
        {"model": name, "scores": evalkit.report_record(scores)},
        sort_keys=True,
    ))
    print(evalkit.render_report(scores))
    return 0


def cmd_predict(args) -> int:
    _, model, vocab, opts = distill.load_selected(args.model_dir)
    sents = load_corpus(args.input, model.config.max_tokens)
    with tc.open_atomic(args.out) as fh:
        for lo in range(0, len(sents), PREDICT_CHUNK):
            chunk = sents[lo:lo + PREDICT_CHUNK]
            graphs = [build_graph(s, vocab, opts) for s in chunk]
            for pred in predict_batch(model, graphs):
                fh.write(json.dumps(pred.to_record(), sort_keys=True) + "\n")
    print(json.dumps({"sentences": len(sents), "path": args.out}, sort_keys=True))
    return 0


def cmd_inspect_graph(args) -> int:
    opts = GraphOptions(**_given_flags(args, GraphOptions))
    opts.validate()
    sents = load_corpus(args.input)
    if not 0 <= args.index < len(sents):
        raise ValueError(
            f"--index {args.index} out of range for corpus of {len(sents)} sentences"
        )
    sent = sents[args.index]
    vocab = build_vocab(sents)
    graph = build_graph(sent, vocab, opts)
    if args.dot_out:
        with tc.open_atomic(args.dot_out) as fh:
            fh.write(to_dot(graph, sent))
    kinds = graph.kind_counts()
    print(json.dumps(
        {"index": args.index, "tokens": graph.n_tokens,
         "nodes": kinds, "edges": len(graph.edges),
         "edge_labels": graph.edge_label_counts()},
        sort_keys=True,
    ))
    print(" ".join(f"{k}:{v}" for k, v in kinds.items()))
    width = max(len(k) for k in graph.edge_label_counts())
    for label, count in graph.edge_label_counts().items():
        print(f"{label:<{width}}  {count}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_field_flags(p: argparse.ArgumentParser, cls) -> None:
    """One flag per field of ``cls``, each a RunConfig field: ``--`` plus the
    name with dashes."""
    for f in fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), default=None,
                       **_FLAG_TYPES[f.type], **_FLAG_EXTRAS.get(f.name, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simrec",
        description="Simile recognition over heterogeneous sentence graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train the model bundle")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--config", help="JSON config file")
    _add_field_flags(p, RunConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the selected model on a corpus")
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="write span predictions for a corpus")
    p.add_argument("--model-dir", required=True, dest="model_dir")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect-graph", help="show one sentence's graph")
    p.add_argument("--input", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--dot-out", dest="dot_out")
    _add_field_flags(p, GraphOptions)
    p.set_defaults(func=cmd_inspect_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
