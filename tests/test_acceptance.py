"""End-to-end acceptance checks for the whole package.

Each test prints one PASS/FAIL verdict line. The lines are written to the
real stdout so they stay visible under pytest's capture; run with -s to see
them inline. The convergence and distillation checks share a single
training run through a module fixture to keep the suite under a few
minutes.
"""

import json
import sys
import time

import numpy as np
import pytest

from modelutil import set_param
from simrec import tensorcore as tc
from simrec.corpus import (
    SyntheticConfig,
    build_vocab,
    canonical_sentence,
    generate_synthetic,
)
from simrec.distill import (
    TrainConfig,
    build_bundle,
    ensemble_backward,
    ensemble_distribution,
    ensemble_forward,
    kl_to_ensemble,
    mean_ensemble_kl,
    select_best,
    supervised_loss,
    train,
    training_lambda,
)
from simrec.encoder import EncoderConfig
from simrec.evalkit import report_record, score_extraction
from simrec.heads import Span
from simrec.hetgraph import (
    EdgeKind,
    EdgeLabel,
    GraphOptions,
    NodeKind,
    build_graph,
)
from simrec.tensorcore import DiffArray

ACC_ENC = EncoderConfig(
    d_model=32,
    n_selfattn_layers=2,
    n_gat_layers=1,
    edge_emb_dim=8,
    max_tokens=20,
    max_positions=24,
)
ACC_TRAIN = TrainConfig(
    epochs=30,
    batch_size=4,
    learning_rate=2e-3,
    seed=0,
    alpha=0.3,
    lambda_mode="increase",
)


def verdict(ok: bool, name: str, detail: str) -> None:
    # sys.__stdout__ bypasses capture so every verdict line reaches the
    # console no matter how pytest was invoked.
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.__stdout__)


@pytest.fixture(scope="module")
def corpus_split():
    corpus = generate_synthetic(SyntheticConfig(n_sentences=500, seed=0))
    return corpus[:400], corpus[400:]


@pytest.fixture(scope="module")
def corpus_vocab(corpus_split):
    return build_vocab(corpus_split[0])


@pytest.fixture(scope="module")
def flagship_run(corpus_split, corpus_vocab):
    """One full distillation run: shared by convergence and KL checks."""
    train_sents, dev_sents = corpus_split
    rng = np.random.default_rng(0)
    bundle = build_bundle(corpus_vocab, ACC_ENC, rng, label_emb_dim=16)
    dev_graphs = [build_graph(s, corpus_vocab) for s in dev_sents]
    kl_start = mean_ensemble_kl(bundle, dev_sents, dev_graphs)
    t0 = time.perf_counter()
    train(bundle, train_sents, dev_sents, ACC_TRAIN)
    elapsed = time.perf_counter() - t0
    kl_end = mean_ensemble_kl(bundle, dev_sents, dev_graphs)
    return bundle, dev_sents, kl_start, kl_end, elapsed


def test_gradient_integrity_full_pipeline():
    """Analytic gradients match central differences for every parameter."""
    t0 = time.perf_counter()
    sent = canonical_sentence()
    vocab = build_vocab([sent])
    enc = EncoderConfig(
        d_model=6, n_selfattn_layers=1, n_gat_layers=1, edge_emb_dim=4,
        max_tokens=8, max_positions=10,
    )
    rng = np.random.default_rng(12)
    bundle = build_bundle(vocab, enc, rng, label_emb_dim=5)
    graph = build_graph(sent, vocab)
    _, out = ensemble_forward(bundle, [sent], graph.block)
    target = ensemble_distribution(*(fwd.final_logits.data for fwd in out.tag_fwds))

    def losses():
        # The training step's tape: the stacked encoders, then the heads and
        # losses on the model axis, one loss per model.
        out = ensemble_forward(bundle, [sent], graph.block)[1]
        sup = supervised_loss(out, [sent], 0.3, 1.0)
        kl = kl_to_ensemble(out.tag_dist, target, graph.block.word_counts)
        return tc.add(tc.scale(sup, 0.5), tc.scale(kl, 0.5))

    eps = 1e-5
    worst = 0.0
    checked = 0
    ensemble_backward(bundle, losses())
    for m, (name, model) in enumerate(bundle.models.items()):
        for pname, param in model.store.params.items():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            for i in np.ndindex(param.shape):
                orig = param.data[i]
                set_param(model.store, pname, orig + eps, i)
                hi = float(losses().data[m])
                set_param(model.store, pname, orig - eps, i)
                lo = float(losses().data[m])
                set_param(model.store, pname, orig, i)
                fd = (hi - lo) / (2.0 * eps)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
                worst = max(worst, rel)
                checked += 1
            param.grad = None
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    verdict(ok, "gradient integrity",
            f"{checked} entries, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 60.0


def test_graph_construction_oracle():
    """The canonical six-token graph matches a hand-enumerated edge list."""
    t0 = time.perf_counter()
    sent = canonical_sentence()
    graph = build_graph(sent, build_vocab([sent]))

    def dep(rel):
        return EdgeLabel(EdgeKind.DEP, rel)

    con = EdgeLabel(EdgeKind.NS_CON)
    not_con = EdgeLabel(EdgeKind.NS_NOT_CON)
    self_loop = EdgeLabel(EdgeKind.SELF_LOOP)
    expected = [
        (1, 2, dep("other")), (2, 1, dep("other")),
        (2, 3, dep("nsubj")), (3, 2, dep("nsubj")),
        (4, 3, dep("prep")), (3, 4, dep("prep")),
        (5, 6, dep("amod")), (6, 5, dep("amod")),
        (6, 4, dep("pobj")), (4, 6, dep("pobj")),
        (2, 0, con), (2, 7, not_con),
        (6, 0, not_con), (6, 7, con),
    ] + [(i, i, self_loop) for i in range(8)]
    counts_ok = graph.kind_counts() == {
        "noun": 2, "non-noun": 4, "subsentence": 2,
    }
    edges_ok = sorted(graph.edges, key=repr) == sorted(expected, key=repr)
    nouns_ok = (
        graph.node_kinds[2] is NodeKind.NOUN
        and graph.node_kinds[6] is NodeKind.NOUN
        and len(graph.edges) == 22
    )
    elapsed = time.perf_counter() - t0
    ok = counts_ok and edges_ok and nouns_ok and elapsed < 1.0
    verdict(ok, "graph oracle",
            f"22 edges, kinds {graph.kind_counts()}, {elapsed * 1000:.0f}ms")
    assert counts_ok
    assert edges_ok
    assert nouns_ok
    assert elapsed < 1.0


def test_ensemble_matches_product_of_softmaxes():
    """softmax(sum of logits) equals the normalized product of softmaxes."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (rng.standard_normal((6, 3)) * 3.0 for _ in range(3))
        got = ensemble_distribution(a, b, c)

        def sm(z):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        prod = sm(a) * sm(b) * sm(c)
        want = prod / prod.sum(axis=-1, keepdims=True)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-9
    verdict(ok, "ensemble identity", f"1000 triples, worst abs err {worst:.2e}")
    assert worst <= 1e-9


def test_distribution_properties_hold():
    """Softmax rows normalize; KL is non-negative and zero on itself."""
    rng = np.random.default_rng(47)
    logits_p = rng.standard_normal((10000, 4)) * 2.0
    logits_q = rng.standard_normal((10000, 4)) * 2.0
    p_rows = tc.softmax(DiffArray(logits_p)).data
    q_rows = tc.softmax(DiffArray(logits_q)).data
    row_err = float(np.abs(p_rows.sum(axis=1) - 1.0).max())
    row_err = max(row_err, float(np.abs(q_rows.sum(axis=1) - 1.0).max()))
    min_kl = np.inf
    worst_self = 0.0
    for i in range(p_rows.shape[0]):
        p = p_rows[i:i + 1]
        kl = float(tc.kl_divergence(p, DiffArray(q_rows[i:i + 1])).data)
        min_kl = min(min_kl, kl)
        self_kl = float(tc.kl_divergence(p, DiffArray(p.copy())).data)
        worst_self = max(worst_self, abs(self_kl))
    ok = row_err <= 1e-9 and min_kl >= -1e-12 and worst_self <= 1e-12
    verdict(ok, "distribution properties",
            f"10000 pairs, row err {row_err:.1e}, min KL {min_kl:.2e}, "
            f"self KL {worst_self:.1e}")
    assert row_err <= 1e-9
    assert min_kl >= -1e-12
    assert worst_self <= 1e-12


def test_mixing_schedule_is_linear():
    """The mixing weight runs 0 to 1, monotone and exactly linear."""
    total = 1000
    config = TrainConfig(lambda_mode="increase")
    endpoint_ok = (training_lambda(config, 0, total + 1) == 0.0
                   and training_lambda(config, total, total + 1) == 1.0)
    values = [training_lambda(config, s, total + 1) for s in range(total + 1)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    worst = max(abs(v - s / total) for s, v in enumerate(values))
    ok = endpoint_ok and monotone and worst <= 1e-12
    verdict(ok, "mixing schedule",
            f"endpoints exact, monotone={monotone}, worst dev {worst:.1e}")
    assert endpoint_ok
    assert monotone
    assert worst <= 1e-12


def test_synthetic_convergence_targets(flagship_run):
    """The selected model clears both F1 bars inside the epoch/time budget."""
    bundle, dev_sents, _, _, elapsed = flagship_run
    selected, scores = select_best(bundle, dev_sents)
    cls_f1 = scores[selected]["classification"].f1
    ext_f1 = scores[selected]["extraction"].f1
    ok = cls_f1 >= 0.95 and ext_f1 >= 0.85 and elapsed < 900.0
    verdict(ok, "synthetic convergence",
            f"selected {selected}, cls F1 {cls_f1:.3f}, ext F1 {ext_f1:.3f}, "
            f"{ACC_TRAIN.epochs} epochs in {elapsed:.0f}s")
    assert cls_f1 >= 0.95
    assert ext_f1 >= 0.85
    assert elapsed < 900.0


def test_distillation_tightens_ensemble_agreement(flagship_run):
    """Mean per-token KL to the ensemble at least halves for every model."""
    _, _, kl_start, kl_end, _ = flagship_run
    ratios = {name: kl_end[name] / kl_start[name] for name in kl_start}
    ok = all(r < 0.5 for r in ratios.values())
    pretty = ", ".join(f"{n}={r:.3f}" for n, r in sorted(ratios.items()))
    verdict(ok, "distillation gap", f"end/start KL ratios {pretty}")
    assert ok, f"KL ratios not all halved: {ratios}"


def test_ablations_do_not_beat_full_graph(corpus_split, corpus_vocab):
    """Across 3 seeds the full graph wins on mean extraction F1."""
    train_sents, dev_sents = corpus_split

    def mean_ext_f1(opts):
        f1s = []
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            bundle = build_bundle(corpus_vocab, ACC_ENC, rng, label_emb_dim=16)
            config = TrainConfig(
                epochs=12, batch_size=4, learning_rate=2e-3, seed=seed,
                alpha=0.3, lambda_mode="increase",
            )
            train(bundle, train_sents, dev_sents, config, graph_options=opts)
            selected, scores = select_best(bundle, dev_sents, opts)
            f1s.append(scores[selected]["extraction"].f1)
        return sum(f1s) / len(f1s)

    full = mean_ext_f1(GraphOptions())
    no_dep = mean_ext_f1(GraphOptions(no_dependency=True))
    no_sub = mean_ext_f1(GraphOptions(no_subsentence_nodes=True))
    ok = full >= no_dep and full >= no_sub
    verdict(ok, "ablation ordering",
            f"full {full:.3f} vs no-dependency {no_dep:.3f} "
            f"vs merged-subsentence {no_sub:.3f}")
    assert full >= no_dep
    assert full >= no_sub


def test_training_is_deterministic():
    """Two identically seeded runs give bit-identical logs and metrics."""
    corpus = generate_synthetic(SyntheticConfig(n_sentences=60, seed=5))
    train_sents, dev_sents = corpus[:48], corpus[48:]
    vocab = build_vocab(train_sents)
    enc = EncoderConfig(
        d_model=16, n_selfattn_layers=1, n_gat_layers=1, edge_emb_dim=4,
        max_tokens=20, max_positions=24,
    )
    config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=7)
    logs = []
    finals = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        bundle = build_bundle(vocab, enc, rng, label_emb_dim=8)
        result = train(bundle, train_sents, dev_sents, config)
        logs.append(json.dumps(result.epoch_logs, sort_keys=True))
        _, scores = select_best(bundle, dev_sents)
        finals.append(json.dumps({
            name: report_record(tasks) for name, tasks in scores.items()
        }, sort_keys=True))
    ok = logs[0] == logs[1] and finals[0] == finals[1]
    verdict(ok, "determinism",
            f"loss logs identical={logs[0] == logs[1]}, "
            f"final metrics identical={finals[0] == finals[1]}")
    assert logs[0] == logs[1]
    assert finals[0] == finals[1]


def test_span_scorer_oracle():
    """A fixed 10-sentence fixture scores exactly 0.8/0.8/0.8."""
    gold = [[Span(2, 2, "tenor")] for _ in range(4)]
    pred = [[Span(2, 2, "tenor")] for _ in range(4)]
    gold += [[Span(5, 6, "vehicle")] for _ in range(4)]
    pred += [[Span(5, 6, "vehicle")] for _ in range(4)]
    # two sentences where the prediction picks the wrong tokens
    gold += [[Span(2, 2, "tenor")], [Span(3, 3, "vehicle")]]
    pred += [[Span(4, 4, "tenor")], [Span(2, 3, "vehicle")]]
    prf = score_extraction(pred, gold)
    counts_ok = (prf.tp, prf.fp, prf.fn) == (8, 2, 2)
    values_ok = (
        abs(prf.precision - 0.8) <= 1e-12
        and abs(prf.recall - 0.8) <= 1e-12
        and abs(prf.f1 - 0.8) <= 1e-12
    )
    ok = counts_ok and values_ok
    verdict(ok, "scorer oracle",
            f"tp/fp/fn {prf.tp}/{prf.fp}/{prf.fn}, "
            f"P {prf.precision:.3f} R {prf.recall:.3f} F1 {prf.f1:.3f}")
    assert counts_ok
    assert values_ok
