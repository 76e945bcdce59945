"""How much slack the acceptance gates have: a sweep, deselected by default.

The acceptance tests (``test_acceptance.py``) train at one seed and one
ablation triplet. This module reruns them on the same corpus and settings at
more seeds and prints what each run measured, one ``SLACK {json}`` line per
test on the real stdout, with the verdict each gate would give:

- per training seed 0-5, with definitions and without (``--no-definitions``):
  the selected model, its dev cls and ext F1 after the 30-epoch run, and
  each model's dev KL to the ensemble at the end over that at the start;
- per seed triplet (0, 1, 2), (3, 4, 5) and (6, 7, 8): the mean ext F1 of
  the full graph, of no dependency edges and of merged subsentence nodes.

It reports and does not assert: a gate that fails at some seed is a finding
to record, not a broken build. Seed 0 with definitions and triplet (0, 1, 2)
are the tier-1 runs. The sweep takes a few minutes on two cores; run it with

    PYTHONPATH=src python -m pytest -m gate_slack -q -s tests/test_gate_slack.py
"""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from simrec.corpus import SyntheticConfig, build_vocab, generate_synthetic
from simrec.distill import build_bundle, mean_ensemble_kl, select_best, train
from simrec.hetgraph import GraphOptions, build_graph
from test_acceptance import ACC_ENC, ACC_TRAIN

pytestmark = pytest.mark.gate_slack

ABLATIONS = {"full": GraphOptions(), "no_dependency": GraphOptions(no_dependency=True),
             "merged_subsentence": GraphOptions(no_subsentence_nodes=True)}


def report(record: dict) -> None:
    print("SLACK " + json.dumps(record, sort_keys=True), file=sys.__stdout__)


@pytest.fixture(scope="module")
def corpus():
    sents = generate_synthetic(SyntheticConfig(n_sentences=500, seed=0))
    return sents[:400], sents[400:], build_vocab(sents[:400])


@pytest.mark.parametrize("definitions", [True, False], ids=["definitions", "no-definitions"])
@pytest.mark.parametrize("seed", range(6))
def test_acceptance_run(corpus, seed, definitions):
    train_sents, dev_sents, vocab = corpus
    bundle = build_bundle(vocab, replace(ACC_ENC, use_gloss_fusion=definitions),
                          np.random.default_rng(seed), label_emb_dim=16)
    dev_graphs = [build_graph(s, vocab) for s in dev_sents]
    kl_start = mean_ensemble_kl(bundle, dev_sents, dev_graphs)
    train(bundle, train_sents, dev_sents, replace(ACC_TRAIN, seed=seed))
    kl_end = mean_ensemble_kl(bundle, dev_sents, dev_graphs)
    selected, scores = select_best(bundle, dev_sents)
    cls_f1 = scores[selected]["classification"].f1
    ext_f1 = scores[selected]["extraction"].f1
    ratios = {name: kl_end[name] / kl_start[name] for name in kl_start}
    report({"seed": seed, "definitions": definitions, "selected": selected,
            "cls_f1": cls_f1, "ext_f1": ext_f1, "kl_ratio": ratios,
            "targets": "pass" if cls_f1 >= 0.95 and ext_f1 >= 0.85 else "fail",
            "distillation_gap": "pass" if all(r < 0.5 for r in ratios.values()) else "fail"})


@pytest.mark.parametrize("seeds", [(0, 1, 2), (3, 4, 5), (6, 7, 8)], ids=str)
def test_ablation_means(corpus, seeds):
    train_sents, dev_sents, vocab = corpus
    means = {}
    for key, opts in ABLATIONS.items():
        f1s = []
        for seed in seeds:
            bundle = build_bundle(vocab, ACC_ENC, np.random.default_rng(seed), label_emb_dim=16)
            train(bundle, train_sents, dev_sents, replace(ACC_TRAIN, epochs=12, seed=seed),
                  graph_options=opts)
            selected, scores = select_best(bundle, dev_sents, opts)
            f1s.append(scores[selected]["extraction"].f1)
        means[key] = sum(f1s) / len(f1s)
    ordered = means["full"] >= max(means["no_dependency"], means["merged_subsentence"])
    report({"seeds": list(seeds), "mean_ext_f1": means,
            "ordering": "pass" if ordered else "fail"})
