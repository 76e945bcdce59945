"""A training batch is one joined graph: it must agree with its sentences run one by one."""

import dataclasses

import numpy as np
import pytest

from gradutil import check_grads
from modelutil import forward_one
from simrec import heads
from simrec import tensorcore as tc
from simrec.corpus import SyntheticConfig, build_vocab, generate_synthetic
from simrec.distill import (
    MODEL_ORDER,
    build_bundle,
    ensemble_distribution,
    evaluate_model,
    kl_to_ensemble,
    supervised_loss,
)
from simrec.encoder import EncoderConfig, encode_graph
from simrec.heads import CLASS_SIMILE, PREDICT_CHUNK, predict, predict_batch
from simrec.hetgraph import GraphOptions, build_graph, join_graphs
from simrec.tensorcore import DiffArray

ENC = EncoderConfig(
    d_model=8, n_selfattn_layers=2, n_gat_layers=2,
    edge_emb_dim=4, max_tokens=20, max_positions=24,
)
LAM = 0.4
VARIANTS = {
    "glosses": (ENC, GraphOptions()),
    "no-glosses": (dataclasses.replace(ENC, use_gloss_fusion=False), GraphOptions()),
    "merged": (ENC, GraphOptions(no_subsentence_nodes=True)),
}


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SyntheticConfig(n_sentences=12, seed=5))


@pytest.fixture(scope="module")
def vocab(corpus):
    return build_vocab(corpus)


def batch_of_four(corpus):
    """Four sentences of different lengths, simile and literal mixed."""
    by_length = {}
    for sent in corpus:
        by_length.setdefault(len(sent.tokens), sent)
    sents = list(by_length.values())[:4]
    assert len({len(s.tokens) for s in sents}) == 4
    assert {s.label for s in sents} == {"simile", "literal"}
    assert any(s.glosses for s in sents)
    return sents


def batch_loss(model, sents, graph, target):
    """The trainer's loss for one model: the batch mean of the mixed loss."""
    out = forward_one(model, sents, graph)
    sup = supervised_loss(out, sents, 0.3, 1.0)
    kl = kl_to_ensemble(out.tag_dist, target, graph.word_counts)
    total = tc.add(tc.scale(sup, LAM), tc.scale(kl, 1.0 - LAM))
    return tc.scale(total, 1.0 / len(sents))


def sentence_targets(bundle, sents, graphs):
    """Ensemble target of each sentence, from one-sentence forward passes."""
    return [
        ensemble_distribution(*(
            forward_one(m, [s], g.block).tag_fwds[0].final_logits.data
            for m in bundle.models.values()
        ))
        for s, g in zip(sents, graphs)
    ]


def grads_of(model):
    grads = {}
    for name, p in model.store.params.items():
        grads[name] = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    return grads


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", MODEL_ORDER)
def test_batch_matches_mean_of_sentences(corpus, vocab, variant, name):
    enc, opts = VARIANTS[variant]
    bundle = build_bundle(vocab, enc, np.random.default_rng(2), label_emb_dim=5)
    model = bundle.models[name]
    sents = batch_of_four(corpus)
    graphs = [build_graph(s, vocab, opts) for s in sents]
    targets = sentence_targets(bundle, sents, graphs)
    block = join_graphs(graphs)
    # Every sentence of the batch is glossed, so the joined gloss rows and
    # pools are shifted past earlier sentences'; only the no-glosses variant
    # turns gloss fusion off.
    assert block.gloss_rows.size == sum(len(s.glosses) for s in sents) > len(sents[0].glosses)

    joined = batch_loss(model, sents, block, np.concatenate(targets))
    tc.backward(joined)
    batch_grads = grads_of(model)

    singles = []
    for sent, graph, target in zip(sents, graphs, targets):
        loss = tc.scale(batch_loss(model, [sent], graph.block, target), 1.0 / len(sents))
        tc.backward(loss)
        singles.append(float(loss.data))
    single_grads = grads_of(model)

    np.testing.assert_allclose(float(joined.data), sum(singles), rtol=1e-12)
    # atol only absorbs roundoff (about 1e-17) on a gradient entry that is
    # zero in exact arithmetic.
    for pname, g in batch_grads.items():
        np.testing.assert_allclose(g, single_grads[pname], rtol=1e-10, atol=1e-14,
                                   err_msg=pname)


def split_at(monkeypatch, p_values, n_literal):
    """Move the simile threshold halfway between the ``n_literal``-th lowest
    p(simile) and the next, so exactly ``n_literal`` sentences read literal."""
    low, high = sorted(p_values)[n_literal - 1:n_literal + 1]
    assert high - low > 1e-9
    monkeypatch.setattr(heads, "SIMILE_THRESHOLD", (low + high) / 2)


def assert_same_predictions(batch, singles):
    assert len(batch) == len(singles)
    for got, want in zip(batch, singles):
        np.testing.assert_allclose(got.p_simile, want.p_simile, rtol=0, atol=1e-12)
        assert (got.label, got.spans) == (want.label, want.spans)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", MODEL_ORDER)
def test_predict_reads_the_training_forward(corpus, vocab, variant, name, monkeypatch):
    # Serving runs a sentence as the block of one that build_graph made;
    # its p(simile) is that sentence's row of the batched training forward.
    enc, opts = VARIANTS[variant]
    bundle = build_bundle(vocab, enc, np.random.default_rng(3), label_emb_dim=5)
    model = bundle.models[name]
    sents = batch_of_four(corpus)
    graphs = [build_graph(s, vocab, opts) for s in sents]
    out = forward_one(model, sents, join_graphs(graphs))
    split_at(monkeypatch, out.cls_dist.data[:, CLASS_SIMILE], 2)
    singles = []
    for b, (sent, graph) in enumerate(zip(sents, graphs)):
        assert join_graphs([graph]) is graph.block
        pred = predict(model, sent, graph, vocab)
        np.testing.assert_allclose(pred.p_simile, out.cls_dist.data[b, CLASS_SIMILE],
                                   rtol=0, atol=1e-12)
        singles.append(pred)
    assert sorted(p.label for p in singles) == ["literal", "literal", "simile", "simile"]
    # One joined block serves the same predictions, the two similes sharing
    # one tagger pass.
    assert_same_predictions(predict_batch(model, graphs), singles)


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_predict_batch_over_a_corpus_of_partial_chunks(vocab, name, monkeypatch):
    sents = generate_synthetic(SyntheticConfig(n_sentences=2 * PREDICT_CHUNK + 3, seed=7))
    assert len(sents) % PREDICT_CHUNK
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5)
    model = bundle.models[name]
    graphs = [build_graph(s, vocab) for s in sents]
    p_values = [predict(model, s, g, vocab).p_simile for s, g in zip(sents, graphs)]
    split_at(monkeypatch, p_values, len(sents) // 2)
    singles = [predict(model, s, g, vocab) for s, g in zip(sents, graphs)]
    assert_same_predictions(predict_batch(model, graphs), singles)


def test_predict_batch_skips_the_tagger_for_a_chunk_without_similes(vocab, monkeypatch):
    sents = generate_synthetic(SyntheticConfig(n_sentences=2 * PREDICT_CHUNK, seed=7))
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5)
    model = bundle.models["t"]
    graphs = [build_graph(s, vocab) for s in sents]
    # Order the corpus by p(simile) and put the threshold after the first
    # chunk: it reads all literal, the second all simile.
    p_values = [predict(model, s, g, vocab).p_simile for s, g in zip(sents, graphs)]
    order = np.argsort(p_values)
    sents, graphs = [sents[i] for i in order], [graphs[i] for i in order]
    split_at(monkeypatch, p_values, PREDICT_CHUNK)
    singles = [predict(model, s, g, vocab) for s, g in zip(sents, graphs)]
    assert [p.label for p in singles] == ["literal"] * PREDICT_CHUNK + ["simile"] * PREDICT_CHUNK

    tagged_rows = []
    forward_tagger = heads.forward_tagger

    def counting(model, words, gold_tags, word_counts):
        tagged_rows.append(words.data.shape[0])
        return forward_tagger(model, words, gold_tags, word_counts)

    monkeypatch.setattr(heads, "forward_tagger", counting)
    batch = predict_batch(model, graphs)
    assert tagged_rows == [sum(len(s.tokens) for s in sents[PREDICT_CHUNK:])]
    assert_same_predictions(batch, singles)


def test_predict_batch_of_nothing(vocab):
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5)
    assert predict_batch(bundle.models["p"], []) == []


def test_evaluate_model_rejects_unpaired_graphs(corpus, vocab):
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5)
    sents = corpus[:3]
    graphs = [build_graph(s, vocab) for s in sents[:2]]
    with pytest.raises(ValueError, match="2 predictions for 3 gold labels"):
        evaluate_model(predict_batch(bundle.models["p"], graphs), sents)


def test_other_sentences_unaffected_by_a_replaced_one(corpus, vocab):
    bundle = build_bundle(vocab, ENC, np.random.default_rng(4), label_emb_dim=5)
    params, config = bundle.models["t"].enc, bundle.config
    sents = batch_of_four(corpus)
    swapped = list(sents)
    swapped[2] = next(s for s in corpus if len(s.tokens) != len(sents[2].tokens)
                      and s not in sents)

    def node_states(batch):
        graphs = [build_graph(s, vocab) for s in batch]
        states = encode_graph(join_graphs(graphs), params, config)
        bounds = np.cumsum([0] + [g.n_nodes for g in graphs])
        return [[g.data[lo:hi] for g in states] for lo, hi in zip(bounds[:-1], bounds[1:])]

    before, after = node_states(sents), node_states(swapped)
    for b in (0, 1, 3):
        for layer_before, layer_after in zip(before[b], after[b]):
            np.testing.assert_allclose(layer_after, layer_before, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", MODEL_ORDER)
def test_batch_gradients_match_finite_differences(corpus, vocab, name):
    enc = EncoderConfig(d_model=4, n_selfattn_layers=1, n_gat_layers=1,
                        edge_emb_dim=3, max_tokens=20, max_positions=24)
    bundle = build_bundle(vocab, enc, np.random.default_rng(6), label_emb_dim=3)
    model = bundle.models[name]
    sents = batch_of_four(corpus)[:3]
    graph = join_graphs([build_graph(s, vocab) for s in sents])
    target = ensemble_distribution(*(
        forward_one(m, sents, graph).tag_fwds[0].final_logits.data
        for m in bundle.models.values()
    ))

    def build():
        return batch_loss(model, sents, graph, target)

    tc.backward(build())
    check_grads(lambda: float(build().data), model.store.params, tol=1e-5, store=model.store)


class TestGeneralisedOps:
    def test_block_masked_softmax(self, rng):
        # The masked softmax runs inside ``tc.attend``, h + softmax(x) @ (h @ wv).
        x = DiffArray(rng.normal(size=(5, 5)))
        h = DiffArray(rng.normal(size=(5, 3)))
        wv = DiffArray(rng.normal(size=(3, 3)))
        w = DiffArray(rng.normal(size=(3, 5)))
        owner = np.array([0, 0, 1, 1, 1])
        mask = owner[:, None] == owner[None, :]

        def build():
            return tc.sum_all(tc.matmul(tc.attend(x, h, wv, mask), w))

        out, _ = tc._softmax(x.data, -1, mask)
        assert (out[~mask] == 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-12)
        tc.backward(build())
        assert (x.grad[~mask] == 0).all()
        check_grads(lambda: float(build().data), {"x": x}, tol=1e-6)

    def test_multi_group_mean_pool(self, rng):
        x = DiffArray(rng.normal(size=(6, 3)))
        w = DiffArray(rng.normal(size=(4, 3)))
        rows, pools = [0, 2, 2, 5, 1], [0, 0, 2, 2, 3]

        def build():
            pooled = tc.mean_pool(x, rows, pools, 4)
            return tc.sum_all(tc.sigmoid(tc.sub(pooled, w)))

        out = tc.mean_pool(x, rows, pools, 4).data
        np.testing.assert_allclose(out[0], x.data[[0, 2]].mean(axis=0), rtol=1e-12)
        assert (out[1] == 0).all()
        np.testing.assert_allclose(out[3], x.data[1], rtol=1e-12)
        tc.backward(build())
        check_grads(lambda: float(build().data), {"x": x}, tol=1e-6)

    def test_repeat_row_with_per_row_counts(self, rng):
        x = DiffArray(rng.normal(size=(3, 2)))
        w = DiffArray(rng.normal(size=(6, 2)))
        counts = [2, 0, 4]

        def build():
            return tc.sum_all(tc.sigmoid(tc.sub(tc.repeat_row(x, counts), w)))

        np.testing.assert_array_equal(tc.repeat_row(x, counts).data,
                                      x.data[[0, 0, 2, 2, 2, 2]])
        tc.backward(build())
        check_grads(lambda: float(build().data), {"x": x}, tol=1e-6)

    def test_row_wise_cross_entropy(self, rng):
        logits = DiffArray(rng.normal(size=(3, 2)))
        golds = [1, 0, 1]

        def build():
            return tc.cross_entropy(tc.softmax(logits), golds)

        dist = tc.softmax(logits).data
        expected = -np.log(dist[[0, 1, 2], golds]).sum()
        np.testing.assert_allclose(float(build().data), expected, rtol=1e-12)
        tc.backward(build())
        check_grads(lambda: float(build().data), {"logits": logits}, tol=1e-6)

    def test_row_weighted_kl(self, rng):
        logits = DiffArray(rng.normal(size=(4, 3)))
        p = rng.uniform(0.1, 1.0, size=(4, 3))
        p /= p.sum(axis=1, keepdims=True)
        weights = [0.5, 0.5, 0.25, 1.0]

        def build():
            return tc.kl_divergence(p, tc.softmax(logits), weights)

        q = tc.softmax(logits).data
        expected = (np.asarray(weights)[:, None] * p * np.log(p / q)).sum()
        np.testing.assert_allclose(float(build().data), expected, rtol=1e-12)
        tc.backward(build())
        check_grads(lambda: float(build().data), {"logits": logits}, tol=1e-6)


STACKED = {
    "plain": ({}, GraphOptions()),
    "share-encoder": ({"share_encoder": True}, GraphOptions()),
    "t-disabled": ({"disabled_models": ("t",)}, GraphOptions()),
    "merged": ({}, GraphOptions(no_subsentence_nodes=True)),
}


def assert_stacked_is_each_models_own(bundle, graphs, monkeypatch):
    """``predict_stacked`` over the graphs' joined blocks encodes each block
    once and gives every model its ``predict_batch``, record for record."""
    blocks = [join_graphs(graphs[lo:lo + PREDICT_CHUNK])
              for lo in range(0, len(graphs), PREDICT_CHUNK)]
    models = list(bundle.models.values())
    encoded = []
    encode = heads.encode_graph
    monkeypatch.setattr(heads, "encode_graph",
                        lambda *args: encoded.append(1) or encode(*args))
    stacked = heads.predict_stacked(models, bundle.enc, bundle.head, blocks)
    assert len(encoded) == len(blocks)
    monkeypatch.setattr(heads, "encode_graph", encode)
    assert len(stacked) == len(models)
    for model, preds in zip(models, stacked):
        assert ([p.to_record() for p in preds]
                == [p.to_record() for p in predict_batch(model, graphs)]), model.name
    return stacked


@pytest.mark.parametrize("variant", STACKED)
def test_stacked_predictions_are_each_models_own(vocab, variant, monkeypatch):
    # A partial last block, and the threshold at the median p(simile) of all
    # models, so that some sentences are judged similes.
    options, graph_options = STACKED[variant]
    sents = generate_synthetic(SyntheticConfig(n_sentences=2 * PREDICT_CHUNK + 3, seed=7))
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5, **options)
    graphs = [build_graph(s, vocab, graph_options) for s in sents]
    p_values = [p.p_simile for model in bundle.models.values()
                for p in predict_batch(model, graphs)]
    monkeypatch.setattr(heads, "SIMILE_THRESHOLD", float(np.median(p_values)))
    stacked = assert_stacked_is_each_models_own(bundle, graphs, monkeypatch)
    assert any(p.spans for preds in stacked for p in preds)


def test_stacked_block_where_one_model_judges_no_simile(vocab, monkeypatch):
    # In the first block, the model with the lowest highest p(simile) judges
    # no sentence a simile, and the others judge some.
    sents = generate_synthetic(SyntheticConfig(n_sentences=PREDICT_CHUNK + 3, seed=7))
    bundle = build_bundle(vocab, ENC, np.random.default_rng(3), label_emb_dim=5)
    graphs = [build_graph(s, vocab) for s in sents]
    highest = sorted(max(p.p_simile for p in predict_batch(model, graphs[:PREDICT_CHUNK]))
                     for model in bundle.models.values())
    assert highest[1] - highest[0] > 1e-9
    monkeypatch.setattr(heads, "SIMILE_THRESHOLD", (highest[0] + highest[1]) / 2)
    stacked = assert_stacked_is_each_models_own(bundle, graphs, monkeypatch)
    first_block = [[p.label for p in preds[:PREDICT_CHUNK]] for preds in stacked]
    assert sorted("simile" in labels for labels in first_block) == [False, True, True]
