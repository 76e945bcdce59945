"""The full-pipeline gradient check over every configuration ``simrec train``
accepts, beside the one configuration of
``test_acceptance.py::test_gradient_integrity_full_pipeline``.

Each case runs the training step's tape (the stacked encoders, then the heads
and losses on the model axis) and compares the gradient of every parameter
tensor with central differences, on a fixed, seeded sample of its entries. A
parameter that one model owns is checked against that model's loss; an
encoder shared by every model (``--share-encoder``) against the sum of their
losses. The eps, the error measure and the tolerance are the acceptance
check's: eps 1e-5, relative error with a 1e-6 floor, at most 1e-4. Each case
prints one verdict line with its eps and worst error.

Checked on every entry, each case passes at eps 1e-5 too. The worst was
9.3e-5, for two self-attention and two GAT layers, on an ``edge_emb``
gradient of 1.2e-7; the others read 6.9e-6 to 5.3e-5.
"""

import dataclasses
import sys

import numpy as np
import pytest

from modelutil import set_param
from simrec import tensorcore as tc
from simrec.corpus import build_vocab, canonical_sentence
from simrec.distill import (
    build_bundle,
    ensemble_backward,
    ensemble_distribution,
    ensemble_forward,
    kl_to_ensemble,
    supervised_loss,
)
from simrec.encoder import EncoderConfig
from simrec.hetgraph import GraphOptions, build_graph, join_graphs

ENC = EncoderConfig(d_model=6, n_selfattn_layers=1, n_gat_layers=1, edge_emb_dim=4,
                    max_tokens=8, max_positions=10)
EPS = 1e-5
TOL = 1e-4
# Entries checked per parameter tensor; a tensor with fewer is checked whole.
SAMPLE = 6

# case -> (encoder, build_bundle options, graph options, sentences)
CASES = {
    "share-encoder": (ENC, {"share_encoder": True}, GraphOptions(), 1),
    "2-self-attention-2-gat": (
        dataclasses.replace(ENC, n_selfattn_layers=2, n_gat_layers=2), {}, GraphOptions(), 1),
    "no-definitions": (dataclasses.replace(ENC, use_gloss_fusion=False), {}, GraphOptions(), 1),
    "no-gat-layers": (dataclasses.replace(ENC, n_gat_layers=0), {}, GraphOptions(), 1),
    "merged-subsentences": (ENC, {}, GraphOptions(no_subsentence_nodes=True), 1),
    "t-disabled": (ENC, {"disabled_models": ("t",)}, GraphOptions(), 1),
    "batch-of-two": (ENC, {}, GraphOptions(), 2),
}


def sentences(n):
    """The canonical simile and, for a batch, a second one of other words."""
    return [canonical_sentence(), canonical_sentence("snow", "cotton")][:n]


@pytest.mark.parametrize("case", CASES)
def test_gradient_integrity_per_configuration(case):
    enc, options, graph_options, n = CASES[case]
    sents = sentences(n)
    vocab = build_vocab(sents)
    bundle = build_bundle(vocab, enc, np.random.default_rng(12), label_emb_dim=5, **options)
    block = join_graphs([build_graph(s, vocab, graph_options) for s in sents])
    _, out = ensemble_forward(bundle, sents, block)
    target = ensemble_distribution(*(fwd.final_logits.data for fwd in out.tag_fwds))

    def losses():
        out = ensemble_forward(bundle, sents, block)[1]
        sup = supervised_loss(out, sents, 0.3, 1.0)
        kl = kl_to_ensemble(out.tag_dist, target, block.word_counts)
        return tc.add(tc.scale(sup, 0.5), tc.scale(kl, 0.5))

    ensemble_backward(bundle, losses())
    models = list(bundle.models.values())
    rng = np.random.default_rng(0)
    worst, checked, tensors, seen = 0.0, 0, 0, set()
    for model in models:
        for pname, param in model.store.params.items():
            if id(param) in seen:  # a shared encoder, checked in its owner's store
                continue
            seen.add(id(param))
            tensors += 1
            holders = [m for m, other in enumerate(models)
                       if any(q is param for q in other.store.params.values())]
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            picks = rng.permutation(param.data.size)[:SAMPLE]
            for i in zip(*np.unravel_index(np.sort(picks), param.shape)):
                orig = param.data[i]
                set_param(model.store, pname, orig + EPS, i)
                hi = float(losses().data[holders].sum())
                set_param(model.store, pname, orig - EPS, i)
                lo = float(losses().data[holders].sum())
                set_param(model.store, pname, orig, i)
                fd = (hi - lo) / (2.0 * EPS)
                worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6))
                checked += 1
    ok = worst <= TOL
    print(f"[{'PASS' if ok else 'FAIL'}] gradient integrity, {case}: {checked} entries of "
          f"{tensors} tensors, eps {EPS:.0e}, worst rel err {worst:.2e}", file=sys.__stdout__)
    assert ok
