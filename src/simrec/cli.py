"""Command-line interface: data generation, training, evaluation, prediction,
and graph inspection.

Configuration can come from a JSON file (--config), from the environment
(SIMREC_SEED, SIMREC_OUT_DIR), and from flags; flags win over the
environment, which wins over the file. Unknown config-file keys are
rejected. Diagnostics go to stderr and the exit code is 0 only on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import distill, evalkit, tensorcore as tc
from .corpus import (
    CorpusError,
    SyntheticConfig,
    build_vocab,
    generate_synthetic,
    load_corpus,
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
        return EncoderConfig(
            d_model=self.d_model,
            n_selfattn_layers=self.n_selfattn_layers,
            n_gat_layers=self.n_gat_layers,
            edge_emb_dim=self.edge_emb_dim,
            leaky_slope=self.leaky_slope,
            max_tokens=self.max_tokens,
            max_positions=self.max_positions,
            use_gloss_fusion=not self.no_definitions,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            alpha=self.alpha,
            aux_weight=self.aux_weight,
            seed=self.seed,
            lambda_mode=self.lambda_mode,
            lambda_fixed=self.lambda_fixed,
        )

    def graph_options(self) -> GraphOptions:
        return GraphOptions(
            top_k_deprels=self.top_k_deprels,
            no_dependency=self.no_dependency,
            no_pos=self.no_pos,
            no_subsentence_nodes=self.no_subsentence_nodes,
        )


# what a config-file value of each RunConfig field type must be; bool is an
# int to Python, so the number checks exclude it
_FILE_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[str, ...]": ("a list of strings",
                        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}
_FIELD_TYPES = {f.name: _FILE_TYPES[f.type] for f in fields(RunConfig)}


def load_run_config(
    config_path: str | None, overrides: dict, env: dict | None = None
) -> RunConfig:
    """Defaults, then config file, then environment, then explicit flags."""
    cfg = RunConfig()
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{config_path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(data) - _FIELD_TYPES.keys())
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys {unknown}")
        for key, value in data.items():
            expected, accepts = _FIELD_TYPES[key]
            if not accepts(value):
                raise ValueError(
                    f"{config_path}: '{key}' must be {expected}, got {json.dumps(value)}"
                )
            setattr(cfg, key, tuple(value) if key == "disable_model" else value)
    env = os.environ if env is None else env
    if "SIMREC_SEED" in env:
        try:
            cfg.seed = int(env["SIMREC_SEED"])
        except ValueError as exc:
            raise ValueError(f"SIMREC_SEED must be an integer: {exc}") from exc
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config override '{key}'")
        setattr(cfg, key, tuple(value) if key == "disable_model" else value)
    return cfg


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("SIMREC_OUT_DIR")
    if not out:
        raise ValueError("no output directory: pass --out-dir or set SIMREC_OUT_DIR")
    return out


def _config_overrides(args) -> dict:
    pairs = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "learning_rate": args.learning_rate,
        "alpha": args.alpha,
        "aux_weight": args.aux_weight,
        "seed": args.seed,
        "lambda_mode": args.lambda_mode,
        "lambda_fixed": args.lambda_fixed,
        "d_model": args.d_model,
        "n_selfattn_layers": args.n_selfattn_layers,
        "n_gat_layers": args.n_gat_layers,
        "edge_emb_dim": args.edge_emb_dim,
        "label_emb_dim": args.label_emb_dim,
        "top_k_deprels": args.top_k_deprels,
        "min_freq": args.min_freq,
    }
    for toggle in ("share_encoder", "no_dependency", "no_pos", "no_definitions",
                   "no_subsentence_nodes"):
        if getattr(args, toggle):
            pairs[toggle] = True
    if args.disable_model:
        pairs["disable_model"] = tuple(args.disable_model)
    return pairs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SIMREC_SEED", "0"))
    corpus = generate_synthetic(
        SyntheticConfig(n_sentences=args.n, seed=seed, noise_rate=args.noise)
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
    cfg = load_run_config(args.config, _config_overrides(args))
    out_dir = _out_dir(args)
    train_sents = load_corpus(args.train)
    dev_sents = load_corpus(args.dev)
    if not dev_sents:
        raise ValueError(f"{args.dev}: empty dev corpus; model selection needs dev sentences")
    vocab = build_vocab(train_sents, min_freq=cfg.min_freq)
    enc_config = cfg.encoder_config()
    train_config = cfg.train_config()
    train_config.validate()  # build_bundle validates the rest, all before any output
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
    result = train(
        bundle, train_sents, dev_sents, train_config,
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
    return distill.evaluate_model(model, sents, graphs, vocab)


def cmd_evaluate(args) -> int:
    name, model, vocab, opts = distill.load_selected(args.model_dir)
    sents = load_corpus(args.data)
    if args.folds:
        fold_scores = []
        for _, test in split_folds(sents, args.folds, seed=args.seed or 0):
            fold_scores.append(_score_sentences(model, test, vocab, opts))
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
    sents = load_corpus(args.input)
    with open(args.out, "w", encoding="utf-8") as fh:
        for lo in range(0, len(sents), PREDICT_CHUNK):
            chunk = sents[lo:lo + PREDICT_CHUNK]
            graphs = [build_graph(s, vocab, opts) for s in chunk]
            for pred in predict_batch(model, chunk, graphs, vocab):
                fh.write(json.dumps(pred.to_record(), sort_keys=True) + "\n")
    print(json.dumps({"sentences": len(sents), "path": args.out}, sort_keys=True))
    return 0


def cmd_inspect_graph(args) -> int:
    sents = load_corpus(args.input)
    if not 0 <= args.index < len(sents):
        raise ValueError(
            f"--index {args.index} out of range for corpus of {len(sents)} sentences"
        )
    sent = sents[args.index]
    vocab = build_vocab(sents)
    opts = GraphOptions(
        top_k_deprels=args.top_k_deprels if args.top_k_deprels is not None else 8,
        no_dependency=args.no_dependency,
        no_pos=args.no_pos,
        no_subsentence_nodes=args.no_subsentence_nodes,
    )
    graph = build_graph(sent, vocab, opts)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
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

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--alpha", type=float)
    p.add_argument("--aux-weight", type=float, dest="aux_weight")
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda-mode", choices=("increase", "decrease", "fixed"),
                   dest="lambda_mode")
    p.add_argument("--lambda-fixed", type=float, dest="lambda_fixed")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--n-selfattn-layers", type=int, dest="n_selfattn_layers")
    p.add_argument("--n-gat-layers", type=int, dest="n_gat_layers")
    p.add_argument("--edge-emb-dim", type=int, dest="edge_emb_dim")
    p.add_argument("--label-emb-dim", type=int, dest="label_emb_dim")
    p.add_argument("--top-k-deprels", type=int, dest="top_k_deprels")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--share-encoder", action="store_true", dest="share_encoder")
    p.add_argument("--no-dependency", action="store_true", dest="no_dependency")
    p.add_argument("--no-pos", action="store_true", dest="no_pos")
    p.add_argument("--no-definitions", action="store_true", dest="no_definitions")
    p.add_argument("--no-subsentence-nodes", action="store_true",
                   dest="no_subsentence_nodes")
    p.add_argument("--disable-model", action="append", choices=("p", "t", "v"),
                   dest="disable_model", default=None,
                   help="drop a model from the bundle (repeatable)")


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
    _add_config_flags(p)
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
    p.add_argument("--top-k-deprels", type=int, dest="top_k_deprels", default=None)
    p.add_argument("--no-dependency", action="store_true", dest="no_dependency")
    p.add_argument("--no-pos", action="store_true", dest="no_pos")
    p.add_argument("--no-subsentence-nodes", action="store_true",
                   dest="no_subsentence_nodes")
    p.set_defaults(func=cmd_inspect_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError, FileNotFoundError, OSError, RuntimeError,
            tc.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
