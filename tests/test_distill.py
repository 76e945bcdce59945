import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from modelutil import forward_one, rebuilt, served, set_param
from simrec import distill
from simrec import tensorcore as tc
from simrec.corpus import SyntheticConfig, build_vocab, generate_synthetic
from simrec.distill import (
    ModelBundle,
    TrainConfig,
    build_bundle,
    ensemble_distribution,
    epoch_batches,
    kl_to_ensemble,
    supervised_loss,
    train,
    training_lambda,
)
from simrec.encoder import EncoderConfig
from simrec.evalkit import report_record
from simrec.hetgraph import GraphOptions, build_graph, edge_label_index, join_graphs
from simrec.heads import (
    PREDICT_CHUNK,
    TAG_TO_ID,
    TagForward,
    model_layout,
    predict,
    predict_batch,
)
from simrec.tensorcore import DiffArray


SMALL_ENC = EncoderConfig(
    d_model=8, n_selfattn_layers=1, n_gat_layers=1,
    edge_emb_dim=4, max_tokens=20, max_positions=24,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_synthetic(SyntheticConfig(n_sentences=12, seed=3))


@pytest.fixture(scope="module")
def tiny_vocab(tiny_corpus):
    return build_vocab(tiny_corpus)


def fresh_bundle(vocab, seed=11, **kwargs):
    return build_bundle(
        vocab, SMALL_ENC, np.random.default_rng(seed), label_emb_dim=6, **kwargs
    )


# Trains fast enough that the best dev epochs differ between models and from
# the last epoch, with and without a shared encoder.
ROLL_BACK = TrainConfig(epochs=5, batch_size=4, seed=0, learning_rate=0.03)


def leader_epoch(result):
    """The best dev epoch of the model ``select_from_scores`` picks from the
    best records: the epoch ``train`` rolls every model back to."""
    leader = distill.select_from_scores(
        {name: (info["extraction_f1"], info["classification_f1"])
         for name, info in result.best.items()})
    return result.best[leader]["epoch"]


def rows_per_epoch(monkeypatch, bundle):
    """A list that gains, per epoch of a ``train`` run with a dev set, a copy
    of each of ``bundle``'s DATA rows as dev scoring leaves them."""
    seen = []
    track_best = distill._track_best

    def recording(result, dev_scores, epoch):
        seen.append([model.store.block[tc.DATA].copy() for model in bundle.models.values()])
        return track_best(result, dev_scores, epoch)

    monkeypatch.setattr(distill, "_track_best", recording)
    return seen


def softmax_np(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSupervisedLoss:
    def _forward(self, cls_row, tag_rows, first_rows=None, first_golds=None):
        def logs(rows):
            return DiffArray(np.log(np.maximum(np.asarray(rows), 1e-300)))

        fwd = TagForward(
            final_logits=logs(tag_rows),
            first_logits=logs(first_rows) if first_rows is not None else None,
            first_golds=first_golds,
        )
        return distill.SentenceForward(
            cls_dist=DiffArray(np.asarray(cls_row)[None, :]),
            tag_fwds=[fwd],
            tag_dist=DiffArray(np.asarray(tag_rows)),
        )

    def test_weighted_combination(self, fig_sentence):
        # Two-token distributions with known cross entropies.
        out = self._forward(
            cls_row=[0.5, 0.5],
            tag_rows=[[0.25, 0.25, 0.5]] * 6,
        )
        loss = supervised_loss(out, [fig_sentence], alpha=0.1)
        # gold class simile -> ln 2; tags O,T,O,O,O,V -> per-token CE:
        # five O tokens at p=0.5 and T,V tokens at p=0.25.
        j_sc = math.log(2)
        j_ce = 4 * math.log(2) + 2 * math.log(4)
        np.testing.assert_allclose(
            float(loss.data), 0.1 * j_sc + 0.9 * j_ce, rtol=1e-12
        )

    def test_alpha_one_keeps_only_classification(self, fig_sentence):
        out = self._forward([0.25, 0.75], [[0.2, 0.3, 0.5]] * 6)
        loss = supervised_loss(out, [fig_sentence], alpha=1.0)
        np.testing.assert_allclose(float(loss.data), math.log(1 / 0.75), rtol=1e-12)

    def test_perfect_prediction_is_zero(self, fig_sentence):
        rows = []
        for tag in fig_sentence.tags:
            row = [0.0, 0.0, 0.0]
            row[TAG_TO_ID[tag]] = 1.0
            rows.append(row)
        out = self._forward([0.0, 1.0], rows)
        assert float(supervised_loss(out, [fig_sentence], alpha=0.1).data) == 0.0

    def test_aux_term_scales_with_weight(self, fig_sentence):
        golds = [1 if t == "T" else 0 for t in fig_sentence.tags]
        kwargs = dict(
            cls_row=[0.5, 0.5],
            tag_rows=[[1 / 3, 1 / 3, 1 / 3]] * 6,
            first_rows=[[0.5, 0.5]] * 6,
            first_golds=golds,
        )
        base = supervised_loss(self._forward(**kwargs), [fig_sentence], 0.1, aux_weight=0.0)
        one = supervised_loss(self._forward(**kwargs), [fig_sentence], 0.1, aux_weight=1.0)
        two = supervised_loss(self._forward(**kwargs), [fig_sentence], 0.1, aux_weight=2.0)
        aux = 6 * math.log(2)  # six tokens at p=0.5
        np.testing.assert_allclose(float(one.data) - float(base.data), 0.9 * aux, rtol=1e-10)
        np.testing.assert_allclose(float(two.data) - float(one.data), 0.9 * aux, rtol=1e-10)


class TestEnsemble:
    def test_zero_logits_give_uniform(self):
        out = ensemble_distribution(np.zeros((4, 3)), np.zeros((4, 3)))
        np.testing.assert_allclose(out, 1 / 3)

    def test_matches_normalized_product_of_softmaxes(self, rng):
        for _ in range(50):
            logits = [rng.normal(scale=3.0, size=(5, 3)) for _ in range(3)]
            summed = ensemble_distribution(*logits)
            prod = np.ones((5, 3))
            for z in logits:
                prod *= softmax_np(z)
            prod /= prod.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(summed, prod, atol=1e-9)

    def test_single_model_is_plain_softmax(self, rng):
        z = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            ensemble_distribution(z), softmax_np(z), atol=1e-12
        )

    def test_per_model_shift_invariance(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        shifted = a + 7.5
        np.testing.assert_allclose(
            ensemble_distribution(a, b), ensemble_distribution(shifted, b), atol=1e-12
        )

    def test_agreeing_models_sharpen(self, rng):
        z = rng.normal(size=(1, 3))
        solo = ensemble_distribution(z)
        trio = ensemble_distribution(z, z, z)
        assert trio.max() > solo.max()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ensemble_distribution(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no logits"):
            ensemble_distribution()


class TestKLToEnsemble:
    def test_zero_when_model_matches_target(self, rng):
        z = rng.normal(size=(4, 3))
        dist = DiffArray(softmax_np(z))
        target = ensemble_distribution(z)
        assert abs(float(kl_to_ensemble(dist, target, np.array([4])).data)) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(50):
            dist = DiffArray(softmax_np(rng.normal(size=(3, 3))))
            target = ensemble_distribution(rng.normal(size=(3, 3)))
            assert float(kl_to_ensemble(dist, target, np.array([3])).data) >= 0.0

    def test_mean_over_tokens(self, rng):
        # Repeating one row must leave the value unchanged.
        z = rng.normal(size=(1, 3))
        t = rng.normal(size=(1, 3))
        one = kl_to_ensemble(DiffArray(softmax_np(z)), ensemble_distribution(t),
                             np.array([1]))
        four = kl_to_ensemble(
            DiffArray(softmax_np(np.tile(z, (4, 1)))),
            ensemble_distribution(np.tile(t, (4, 1))),
            np.array([4]),
        )
        np.testing.assert_allclose(float(one.data), float(four.data), rtol=1e-12)

    def test_gradient_reaches_logits(self, rng):
        logits = DiffArray(rng.normal(size=(3, 3)))
        target = ensemble_distribution(rng.normal(size=(3, 3)))
        loss = kl_to_ensemble(tc.softmax(logits), target, np.array([3]))
        tc.backward(loss)
        assert logits.grad is not None and np.abs(logits.grad).max() > 0


class TestLambdaSchedule:
    def test_endpoints_and_linearity(self):
        config = TrainConfig(lambda_mode="increase")
        assert training_lambda(config, 0, 11) == 0.0
        assert training_lambda(config, 10, 11) == 1.0
        for k in range(11):
            assert training_lambda(config, k, 11) == k / 10

    def test_training_lambda_increase_spans_unit_interval(self):
        config = TrainConfig(lambda_mode="increase")
        total = 5
        values = [training_lambda(config, s, total) for s in range(total)]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert values == sorted(values)

    def test_training_lambda_decrease_mirrors(self):
        inc = TrainConfig(lambda_mode="increase")
        dec = TrainConfig(lambda_mode="decrease")
        for s in range(6):
            a = training_lambda(inc, s, 6)
            b = training_lambda(dec, s, 6)
            np.testing.assert_allclose(a + b, 1.0)

    def test_training_lambda_fixed(self):
        config = TrainConfig(lambda_mode="fixed", lambda_fixed=0.25)
        assert training_lambda(config, 0, 9) == 0.25
        assert training_lambda(config, 8, 9) == 0.25

    def test_single_step_schedule(self):
        config = TrainConfig(lambda_mode="increase")
        assert training_lambda(config, 0, 1) == 0.0


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"alpha": 1.5}, "alpha"),
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"lambda_mode": "wavy"}, "lambda_mode"),
            ({"lambda_fixed": -0.1}, "lambda_fixed"),
            *(({"learning_rate": v}, rf"learning_rate must be finite and positive, got {v!r}")
              for v in (math.nan, math.inf, -math.inf, -1e-3, 0.0)),
            *(({"aux_weight": v}, rf"aux_weight must be finite and non-negative, got {v!r}")
              for v in (math.nan, math.inf, -math.inf, -1.0)),
        ],
    )
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs).validate()

    def test_zero_aux_weight_is_valid(self):
        TrainConfig(aux_weight=0.0).validate()


class TestBuildBundle:
    @pytest.mark.parametrize(
        "disabled, message",
        [
            (("q",), "unknown model"),
            (("p", "t", "v"), "stay enabled"),
        ],
    )
    def test_rejects(self, tiny_vocab, disabled, message):
        with pytest.raises(ValueError, match=message):
            fresh_bundle(tiny_vocab, disabled_models=disabled)

    @pytest.mark.parametrize("kwargs, message", [
        *(({"label_emb_dim": n}, rf"^label_emb_dim must be positive, got {n}$") for n in (0, -2)),
        ({"top_k_deprels": -1}, r"^GraphOptions: top_k_deprels must be non-negative, got -1$"),
    ])
    def test_rejects_sizes_no_model_can_have(self, tiny_vocab, kwargs, message):
        with pytest.raises(ValueError, match=message):
            build_bundle(tiny_vocab, SMALL_ENC, np.random.default_rng(0), **kwargs)


class TestEpochBatches:
    def test_partitions_all_indices(self):
        rng = np.random.default_rng(0)
        batches = epoch_batches(10, 3, rng)
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        assert sorted(i for b in batches for i in b) == list(range(10))

    def test_deterministic_under_seed(self):
        a = epoch_batches(20, 4, np.random.default_rng(9))
        b = epoch_batches(20, 4, np.random.default_rng(9))
        assert a == b

    def test_order_is_shuffled(self):
        batches = epoch_batches(50, 50, np.random.default_rng(1))
        assert batches[0] != list(range(50))


class TestGradientIsolation:
    def test_ensemble_target_carries_no_gradient(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        sent = tiny_corpus[0]
        graph = build_graph(sent, tiny_vocab)
        outs = {
            name: forward_one(m, [sent], graph.block)
            for name, m in bundle.models.items()
        }
        target = ensemble_distribution(
            *(outs[n].tag_fwds[0].final_logits.data for n in bundle.models)
        )
        loss = tc.add(
            tc.scale(supervised_loss(outs["p"], [sent], 0.1), 0.5),
            tc.scale(kl_to_ensemble(outs["p"].tag_dist, target, graph.block.word_counts),
                     0.5),
        )
        tc.backward(loss)
        for other in ("t", "v"):
            for param in bundle.models[other].head.values():
                assert param.grad is None
            for param in bundle.models[other].enc.values():
                assert param.grad is None
        own_grads = [p.grad for p in bundle.models["p"].store.params.values()]
        assert any(g is not None and np.abs(g).max() > 0 for g in own_grads)

    def test_loss_unchanged_when_peers_perturbed(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        sent = tiny_corpus[1]
        graph = build_graph(sent, tiny_vocab)

        def p_loss(target):
            out = forward_one(bundle.models["p"], [sent], graph.block)
            return float(kl_to_ensemble(out.tag_dist, target, graph.block.word_counts).data)

        outs = {
            name: forward_one(m, [sent], graph.block)
            for name, m in bundle.models.items()
        }
        target = ensemble_distribution(
            *(outs[n].tag_fwds[0].final_logits.data for n in bundle.models)
        )
        before = p_loss(target)
        for param in bundle.models["t"].store.params.values():
            param.data = param.data + 0.37
        assert p_loss(target) == before


class TestFixedLambdaReduction:
    def test_pure_supervised_training_is_reproduced_by_hand(
        self, tiny_corpus, tiny_vocab
    ):
        # With lambda fixed at 1 distillation vanishes; the trainer must be
        # bit-identical to independently supervised models on the same
        # batch order.
        config = TrainConfig(
            epochs=2, batch_size=4, learning_rate=1e-3, alpha=0.1, seed=5,
            lambda_mode="fixed", lambda_fixed=1.0,
        )
        sents = tiny_corpus[:8]
        trained = fresh_bundle(tiny_vocab, seed=11)
        train(trained, sents, [], config)

        manual = fresh_bundle(tiny_vocab, seed=11)
        graphs = [build_graph(s, tiny_vocab) for s in sents]
        rng = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            for batch in epoch_batches(len(sents), config.batch_size, rng):
                for model in manual.models.values():
                    batch_sents = [sents[i] for i in batch]
                    block = join_graphs([graphs[i] for i in batch])
                    terms = [
                        supervised_loss(
                            forward_one(model, batch_sents, block),
                            batch_sents, config.alpha, config.aux_weight,
                        )
                    ]
                    total = terms[0]
                    for t in terms[1:]:
                        total = tc.add(total, t)
                    tc.backward(tc.scale(total, 1.0 / len(batch)))
                    model.store.adam_step(config.learning_rate)

        for name in trained.models:
            got = trained.models[name].store.params
            want = manual.models[name].store.params
            assert set(got) == set(want)
            for pname in got:
                assert np.array_equal(got[pname].data, want[pname].data), (
                    f"{name}:{pname} diverged"
                )


def _no_c_library(name):
    raise OSError("no C library to open")


class TestTrainLoop:
    @pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                             ids=["no-mallopt", "no-libc"])
    def test_trains_the_same_without_mallopt(self, cdll, monkeypatch, tiny_corpus, tiny_vocab):
        """Without glibc's mallopt the allocator setting is skipped, and the
        run is the same."""
        config = TrainConfig(epochs=1, batch_size=4, seed=1)
        want = train(fresh_bundle(tiny_vocab, seed=7), tiny_corpus[:8], [], config).epoch_logs
        monkeypatch.setattr(distill.ctypes, "CDLL", cdll)
        got = train(fresh_bundle(tiny_vocab, seed=7), tiny_corpus[:8], [], config).epoch_logs
        assert got == want

    def test_two_runs_are_bit_identical(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(epochs=2, batch_size=4, seed=1)
        logs = []
        for _ in range(2):
            bundle = fresh_bundle(tiny_vocab, seed=7)
            result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
            logs.append(result.epoch_logs)
        assert logs[0] == logs[1]

    def test_log_file_matches_memory(self, tiny_corpus, tiny_vocab, tmp_path):
        config = TrainConfig(epochs=2, batch_size=4, seed=1)
        bundle = fresh_bundle(tiny_vocab)
        log_path = tmp_path / "train_log.jsonl"
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config,
                       log_path=log_path)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == result.epoch_logs

    def test_epoch_records_carry_lambda_and_losses(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(epochs=3, batch_size=4, seed=2, lambda_mode="increase")
        bundle = fresh_bundle(tiny_vocab)
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
        assert [r["epoch"] for r in result.epoch_logs] == [1, 2, 3]
        assert result.epoch_logs[-1]["lambda"] == 1.0
        for record in result.epoch_logs:
            assert set(record["losses"]) == {"p", "t", "v"}
            assert set(record["dev"]) == {"p", "t", "v"}
            for scores in record["dev"].values():
                assert set(scores) == {"classification", "extraction"}

    def test_nan_parameter_aborts_with_location(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(epochs=1, batch_size=4, seed=0)
        bundle = fresh_bundle(tiny_vocab)
        set_param(bundle.models["p"].store, "head/cls/w", np.nan, (0, 0))
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 1"):
            train(bundle, tiny_corpus[:8], [], config)

    def test_nan_parameter_runs_the_forward_once(self, tiny_corpus, tiny_vocab, monkeypatch):
        calls = []
        real_forward = distill.ensemble_forward

        def counted(*args):
            calls.append(1)
            return real_forward(*args)

        monkeypatch.setattr(distill, "ensemble_forward", counted)
        bundle = fresh_bundle(tiny_vocab)
        set_param(bundle.models["p"].store, "head/cls/w", np.nan, (0, 0))
        with pytest.raises(RuntimeError, match="op 'matmul'"):
            train(bundle, tiny_corpus[:8], [], TrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(calls) == 1

    @staticmethod
    def _state(bundle):
        """Every model's weights, Adam moments and step count."""
        return [(m.store.block[[tc.DATA, tc.MOMENT1, tc.MOMENT2]].copy(), m.store.step_count)
                for m in bundle.models.values()]

    def _assert_state(self, bundle, before):
        for (rows, steps), (rows_before, steps_before) in zip(self._state(bundle), before):
            np.testing.assert_array_equal(rows, rows_before)
            assert steps == steps_before

    def test_nan_seen_only_by_the_class_check_aborts_at_its_op(self, tiny_corpus, tiny_vocab):
        # At lambda 0 the loss is the KL term alone, so cls/w gets no gradient
        # and only the checked class distribution carries the NaN.
        config = TrainConfig(epochs=1, batch_size=4, seed=0, lambda_mode="fixed",
                             lambda_fixed=0.0)
        bundle = fresh_bundle(tiny_vocab)
        set_param(bundle.models["p"].store, "head/cls/w", np.nan, (0, 0))
        before = self._state(bundle)
        with pytest.raises(RuntimeError,
                           match=r"epoch 1, batch 1: non-finite values produced by op 'matmul'"):
            train(bundle, tiny_corpus[:8], [], config)
        self._assert_state(bundle, before)

    def test_nonfinite_gradient_aborts_before_adam_step(self, tiny_corpus, tiny_vocab,
                                                        monkeypatch):
        real_backward = distill.ensemble_backward

        def poisoned(bundle, losses):
            real_backward(bundle, losses)
            bundle.models["t"].head["second/w"].grad[0, 0] = np.inf

        monkeypatch.setattr(distill, "ensemble_backward", poisoned)
        bundle = fresh_bundle(tiny_vocab)
        before = self._state(bundle)
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 1: non-finite gradient "
                                               r"of model 't' parameter 'head/second/w'"):
            train(bundle, tiny_corpus[:8], [], TrainConfig(epochs=1, batch_size=4, seed=0))
        self._assert_state(bundle, before)
        # The failed step's gradients are dropped, so training can go on.
        for model in bundle.models.values():
            assert all(p.grad is None for p in model.store.params.values())
            assert not model.store.block[tc.GRAD].any()
        monkeypatch.undo()
        train(bundle, tiny_corpus[:8], [], TrainConfig(epochs=1, batch_size=4, seed=0))

    def test_gradient_too_large_to_square_aborts_before_adam_step(self, tiny_corpus,
                                                                  tiny_vocab):
        # Finite everywhere, but Adam's squared gradient would overflow.
        config = TrainConfig(epochs=1, batch_size=4, seed=0, lambda_mode="fixed",
                             lambda_fixed=1.0)
        bundle = fresh_bundle(tiny_vocab)
        set_param(bundle.models["p"].store, "head/cls/emb", 1e300)
        before = self._state(bundle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"epoch 1, batch 1: gradient too large to "
                                                   r"square of model 'p' parameter '[^']+'$"):
                train(bundle, tiny_corpus[:8], [], config)
        self._assert_state(bundle, before)

    def test_negative_top_k_deprels_rejected_before_training(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        with pytest.raises(ValueError, match="top_k_deprels must be non-negative, got -1"):
            train(bundle, tiny_corpus[:8], [], TrainConfig(epochs=1),
                  graph_options=GraphOptions(top_k_deprels=-1))

    def test_empty_training_set_rejected(self, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        with pytest.raises(ValueError, match="empty training"):
            train(bundle, [], [], TrainConfig(epochs=1))

    def test_over_long_sentence_rejected_before_training(self, tiny_corpus, tiny_vocab):
        longest = max(tiny_corpus, key=lambda s: len(s.tokens))
        n = len(longest.tokens)
        enc = EncoderConfig(d_model=8, n_selfattn_layers=1, n_gat_layers=1,
                            edge_emb_dim=4, max_tokens=n - 1, max_positions=n + 1)
        bundle = build_bundle(tiny_vocab, enc, np.random.default_rng(0), label_emb_dim=6)
        short = [s for s in tiny_corpus if len(s.tokens) < n]
        before = {k: p.data.copy() for k, p in bundle.models["p"].store.params.items()}
        with pytest.raises(ValueError, match=f"dev sentence 1 has {n} tokens"):
            train(bundle, short, [short[0], longest], TrainConfig(epochs=1))
        for k, p in bundle.models["p"].store.params.items():
            assert np.array_equal(p.data, before[k])

    def test_kl_only_training_runs(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(
            epochs=1, batch_size=4, seed=0, lambda_mode="fixed", lambda_fixed=0.0
        )
        bundle = fresh_bundle(tiny_vocab)
        result = train(bundle, tiny_corpus[:8], [], config)
        for value in result.epoch_logs[0]["losses"].values():
            assert math.isfinite(value) and value >= 0

    def test_disabled_model_shrinks_ensemble(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(epochs=1, batch_size=4, seed=0)
        bundle = fresh_bundle(tiny_vocab, disabled_models=("v",))
        assert tuple(bundle.models) == ("p", "t")
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
        assert set(result.epoch_logs[0]["losses"]) == {"p", "t"}

    def test_shared_encoder_objects_and_updates(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab, share_encoder=True)
        models = list(bundle.models.values())
        assert models[1].enc is models[0].enc
        assert models[2].enc is models[0].enc
        before = models[0].enc["tok_emb"].data.copy()
        config = TrainConfig(epochs=1, batch_size=4, seed=0)
        train(bundle, tiny_corpus[:8], [], config)
        assert not np.array_equal(models[0].enc["tok_emb"].data, before)
        for model in models:
            for param in model.store.params.values():
                assert param.grad is None

    def test_best_tracking(self, tiny_corpus, tiny_vocab):
        config = TrainConfig(epochs=2, batch_size=4, seed=0)
        bundle = fresh_bundle(tiny_vocab)
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
        assert set(result.best) == {"p", "t", "v"}
        for entry in result.best.values():
            assert set(entry) == {"epoch", "extraction_f1", "classification_f1"}
        # The one snapshot: a copy of each store's DATA row.
        for row, model in zip(result.rows, bundle.models.values(), strict=True):
            assert row.shape == model.store.block[tc.DATA].shape
            assert not np.shares_memory(row, model.store.block)

    def test_restore_best_rolls_back_parameters(self, tiny_corpus, tiny_vocab, monkeypatch):
        bundle = fresh_bundle(tiny_vocab)
        seen = rows_per_epoch(monkeypatch, bundle)
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], ROLL_BACK)
        epoch = leader_epoch(result)
        assert epoch < ROLL_BACK.epochs
        # The other models' own best epochs differ from the leader's.
        assert {entry["epoch"] for entry in result.best.values()} != {epoch}
        for model, row, want in zip(bundle.models.values(), result.rows, seen[epoch - 1],
                                    strict=True):
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(model.store.block[tc.DATA], want)

    def test_leader_improving_again_replaces_the_snapshot(self, tiny_corpus, tiny_vocab,
                                                          monkeypatch):
        # The leader improves at two epochs before the last: TrainResult.rows
        # and the restored rows carry the later one's bits, not the first's.
        bundle = fresh_bundle(tiny_vocab)
        seen = rows_per_epoch(monkeypatch, bundle)
        improved = []
        track_best = distill._track_best

        def recording(result, dev_scores, epoch):
            improved.append(track_best(result, dev_scores, epoch))
            return improved[-1]

        monkeypatch.setattr(distill, "_track_best", recording)
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], ROLL_BACK)
        epoch = leader_epoch(result)
        assert sum(improved[:-1]) >= 2 and not improved[-1]
        assert improved[epoch - 1] and 1 < epoch < ROLL_BACK.epochs
        for model, row, want, first in zip(bundle.models.values(), result.rows, seen[epoch - 1],
                                           seen[0], strict=True):
            assert row.tobytes() == want.tobytes()
            assert model.store.block[tc.DATA].tobytes() == want.tobytes()
            assert not np.array_equal(want, first)

    def test_serving_after_roll_back_matches_a_rebuilt_model(self, tiny_corpus, tiny_vocab):
        # Dev scoring serves each model in the last epoch; serving after the
        # roll-back must read the restored weights, as a model built anew from
        # them does.
        config = TrainConfig(epochs=3, batch_size=4, seed=2)
        bundle = fresh_bundle(tiny_vocab)
        result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
        assert leader_epoch(result) < config.epochs
        block = join_graphs([build_graph(s, tiny_vocab) for s in tiny_corpus[8:]])
        for model in bundle.models.values():
            assert served(model, block) == served(rebuilt(model), block)

    def test_shared_encoder_rolls_back_to_the_leaders_epoch(self, tiny_corpus, tiny_vocab,
                                                          monkeypatch):
        # The shared encoder lives in the first model's row, so restoring every
        # row puts the whole ensemble back at one epoch. Dev scoring consumes
        # no randomness, so a run without a dev set ends at the last epoch's
        # rows of a run with one.
        with_dev = fresh_bundle(tiny_vocab, share_encoder=True)
        seen = rows_per_epoch(monkeypatch, with_dev)
        result = train(with_dev, tiny_corpus[:8], tiny_corpus[8:], ROLL_BACK)
        epoch = leader_epoch(result)
        assert epoch < ROLL_BACK.epochs
        without = fresh_bundle(tiny_vocab, share_encoder=True)
        train(without, tiny_corpus[:8], [], ROLL_BACK)
        for model, devless, want, last in zip(with_dev.models.values(), without.models.values(),
                                              seen[epoch - 1], seen[-1], strict=True):
            np.testing.assert_array_equal(model.store.block[tc.DATA], want)
            np.testing.assert_array_equal(devless.store.block[tc.DATA], last)
            assert not np.array_equal(want, last)

    def test_leader_best_in_the_last_epoch_keeps_the_last_weights(self, tiny_corpus, tiny_vocab):
        # Earlier epochs' rows were copied, but the last epoch's weights are
        # the leader's best and stay, with no copy: the run ends as one
        # without a dev set does.
        config = replace(ROLL_BACK, learning_rate=0.01)
        with_dev = fresh_bundle(tiny_vocab)
        result = train(with_dev, tiny_corpus[:8], tiny_corpus[8:], config)
        assert leader_epoch(result) == config.epochs
        assert {entry["epoch"] for entry in result.best.values()} != {config.epochs}
        assert result.rows == []
        without = fresh_bundle(tiny_vocab)
        train(without, tiny_corpus[:8], [], config)
        for model, devless in zip(with_dev.models.values(), without.models.values()):
            np.testing.assert_array_equal(model.store.block[tc.DATA],
                                          devless.store.block[tc.DATA])

    @pytest.mark.parametrize("share_encoder", [False, True], ids=["plain", "share-encoder"])
    def test_restored_models_score_their_logged_epoch(self, tiny_corpus, tiny_vocab,
                                                      share_encoder):
        # After the roll-back every model stands at the leader's best epoch,
        # so scoring each one again gives that epoch's logged dev record.
        bundle = fresh_bundle(tiny_vocab, share_encoder=share_encoder)
        dev = tiny_corpus[8:]
        result = train(bundle, tiny_corpus[:8], dev, ROLL_BACK)
        logged = result.epoch_logs[leader_epoch(result) - 1]["dev"]
        assert logged != result.epoch_logs[-1]["dev"]
        graphs = [build_graph(s, tiny_vocab) for s in dev]
        for name, model in bundle.models.items():
            assert report_record(distill.evaluate_model(model, dev, graphs)) == logged[name]


class TestTrainingBits:
    """The bits of a short seeded run (numpy 2.4.6, BLAS at one thread). Lambda
    rises from 0 to 1, so the run takes KL-only, mixed and supervised-only
    steps. Recorded again when the GAT score was split into per-node logits
    (``tc.gat_score``), which moved every digest in the last bits, and again
    when each GAT layer's score vectors became the parameter ``gat<l>/u`` and
    ``gat<l>/wa`` shrank to its edge part: the layout, the draws and so every
    trained weight changed. The ``share-encoder`` DATA digests were recorded
    again when a shared-encoder run began to roll back to its leader's best
    epoch, as a run without a shared encoder does; training itself, and so
    the log and every moment digest, did not move."""

    ENC = EncoderConfig(d_model=12, n_selfattn_layers=1, n_gat_layers=2,
                        edge_emb_dim=5, max_tokens=20, max_positions=24)
    DIGESTS = {
        "plain": {
            "log": "6ba14a47b96e0a1dcc89e5d0442c594e2b3900a71183560cfbccf2c396a0ce6a",
            "p/data": "29e06eea102a068f2592a29f32a79d1d2fc295abeaf0bba9ef82977fe643b634",
            "p/m1": "2cb955a994ff15048543453b39d5c1503c7e46ab5ed0017819d59ccd9af1e37e",
            "p/m2": "7e0ba1308da4fb2b9b0127b87a85011f66fd70974ccfdd3af1a2481522cd8338",
            "t/data": "cd87a8f7c96dc6cb9eb0add84060dfcae72c40e62abc771010133b0f256462fc",
            "t/m1": "f6422dd3681d53ad778ab8435993a42aabde329a6ba365fd0eb51304a96408d5",
            "t/m2": "4cc2cad605c5dad8ed7b37257758eae7543b396e8929d2871ce9104f59b30f77",
            "v/data": "449927a98f87266315d62e48688dfb7b49b22eb7064a8aff8644ec5e7245eda4",
            "v/m1": "ac9ab57526abb3ccd623645ca64b0352639aba57c5e95330c121fc86923b5cb7",
            "v/m2": "7d5c07b290194349f85d3313f75191b64fc2e957bccdf61a40583dff0d9e21b9",
        },
        "share-encoder": {
            "log": "fc657db16d6d2cbd568984bb4b8f1be1f5ba1ee204956935dd14fcbe762807b0",
            "p/data": "b44efe3e4dd29976935463c3b6f4596a302c8e178f850194ef6efeb688df7a3e",
            "p/m1": "9a3dd16d4d773a460f5690b132e7a1e87353b278520169b13969dd91092d9d5e",
            "p/m2": "163d39adc73af70cb166fe7502a9b93091334109cb8525ea16839745220309df",
            "t/data": "1bdf0ac9ad90bc698a4754f3c5ea09c770999be97ebcc7d41ca7cac7da81a8bb",
            "t/m1": "88ea3efffc878f7d9729af8f2ab32cc41f52b91f21a9dafcbd9d95151fb61f97",
            "t/m2": "e6c5f83d7b049bd6ab3924d4a340d54e2f394d670438c3b3613425a6ebfb29a0",
            "v/data": "67bf0face55dc653e993d4ddab0fc6a45b2ae87d0f1d6a1076970310ffb7f47c",
            "v/m1": "0ee5ea3c59ac60f881726f46fb23239fa128851aa5c5c5285ea8d1be1b152182",
            "v/m2": "887e4fcb69a9c514b9a362b5e53cad047580957daf391d34c8d71225c49ddfb3",
        },
    }

    @pytest.mark.parametrize("case", ["plain", "share-encoder"])
    def test_training_keeps_its_digest(self, case, tmp_path):
        sents = generate_synthetic(SyntheticConfig(n_sentences=24, seed=13))
        vocab = build_vocab(sents)
        bundle = build_bundle(vocab, self.ENC, np.random.default_rng(4), label_emb_dim=6,
                              share_encoder=case == "share-encoder")
        log_path = tmp_path / "train_log.jsonl"
        train(bundle, sents[:16], sents[16:], TrainConfig(epochs=3, batch_size=4, seed=2),
              log_path=log_path)
        got = {"log": hashlib.sha256(log_path.read_bytes()).hexdigest()}
        for name, model in bundle.models.items():
            for row, label in ((tc.DATA, "data"), (tc.MOMENT1, "m1"), (tc.MOMENT2, "m2")):
                got[f"{name}/{label}"] = hashlib.sha256(
                    model.store.block[row].tobytes()).hexdigest()
        assert got == self.DIGESTS[case]


def assert_params_in_block(model, owner=None):
    """Every parameter of the model's store is a view into its block, unless
    it is ``owner``'s parameter of that name: an encoder weight it shares."""
    store = model.store
    for pname, p in store.params.items():
        if owner not in (None, model) and p is owner.store.params.get(pname):
            assert not np.shares_memory(p.data, store.block), pname
        else:
            assert np.shares_memory(p.data, store.block), pname
            assert np.shares_memory(p.grad_home, store.block), pname


class TestParamBlocks:
    @pytest.mark.parametrize("share_encoder", [False, True])
    def test_built_bundle_lives_in_blocks(self, tiny_vocab, share_encoder):
        bundle = fresh_bundle(tiny_vocab, share_encoder=share_encoder)
        owner = next(iter(bundle.models.values()))
        for model in bundle.models.values():
            assert_params_in_block(model, owner)

    def test_loaded_models_live_in_blocks(self, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab)
        distill.save_bundle(bundle, tmp_path, selected="t")
        _, model, _, _ = distill.load_selected(tmp_path)
        assert_params_in_block(model)
        for pname, p in model.store.params.items():
            np.testing.assert_array_equal(p.data, bundle.models["t"].store.params[pname].data)
        loaded, _ = distill.load_bundle(tmp_path)
        for model in loaded.models.values():
            assert_params_in_block(model)

    @pytest.mark.parametrize("share_encoder", [False, True])
    def test_views_are_read_only(self, tiny_vocab, tmp_path, share_encoder):
        # Weights change only through their store: each model's views and
        # the stacked ones, built or loaded.
        bundle = fresh_bundle(tiny_vocab, share_encoder=share_encoder)
        distill.save_bundle(bundle, tmp_path, selected="p")
        for b in (bundle, distill.load_bundle(tmp_path)[0]):
            views = [*b.enc.values(), *b.head.values(),
                     *(p for model in b.models.values() for p in model.store.params.values())]
            for p in views:
                with pytest.raises(ValueError, match="read-only"):
                    p.data[(0,) * p.data.ndim] = 1.0

    def test_rolled_back_models_live_in_blocks(self, tiny_corpus, tiny_vocab):
        for share_encoder in (False, True):
            bundle = fresh_bundle(tiny_vocab, share_encoder=share_encoder)
            result = train(bundle, tiny_corpus[:8], tiny_corpus[8:], ROLL_BACK)
            owner = next(iter(bundle.models.values()))
            for model, row in zip(bundle.models.values(), result.rows, strict=True):
                assert_params_in_block(model, owner)
                np.testing.assert_array_equal(model.store.block[tc.DATA], row)

    def test_shared_encoder_updated_once_per_step(self, tiny_corpus, tiny_vocab):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        bundle = fresh_bundle(tiny_vocab, share_encoder=True)
        owner, *borrowers = bundle.models.values()
        shared = owner.enc
        for model in borrowers:
            store = model.store
            assert all(store.params[f"enc/{key}"] is p for key, p in shared.items())
            head_floats = sum(p.data.size for p in model.head.values())
            assert store.block.shape == (4, head_floats)
            for p in shared.values():
                assert not np.shares_memory(p.data, store.block)
        sents = tiny_corpus[:4]
        block = join_graphs([build_graph(s, tiny_vocab) for s in sents])
        for model in bundle.models.values():
            out = forward_one(model, sents, block)
            tc.backward(supervised_loss(out, sents, 0.3))
        expected = {}
        for key, p in shared.items():
            m = (1.0 - b1) * p.grad
            v = (1.0 - b2) * p.grad * p.grad
            expected[key] = p.data - lr * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + eps)
        for model in bundle.models.values():
            model.store.adam_step(lr, b1, b2, eps)
        for key, p in shared.items():
            np.testing.assert_array_equal(p.data, expected[key], err_msg=key)
            assert p.grad is None

    def test_adam_step_runs_once_per_model_per_batch(self, tiny_corpus, tiny_vocab,
                                                     monkeypatch):
        # perfbench/workloads.py closes a training step every n_models calls
        # of ParamStore.adam_step, so the count and order must hold.
        calls = []
        adam_step = tc.ParamStore.adam_step

        def counted(store, *args, **kwargs):
            calls.append(store)
            adam_step(store, *args, **kwargs)

        monkeypatch.setattr(tc.ParamStore, "adam_step", counted)
        config = TrainConfig(epochs=1, batch_size=4, seed=0)
        bundle = fresh_bundle(tiny_vocab)
        train(bundle, tiny_corpus[:8], tiny_corpus[8:], config)
        stores = [model.store for model in bundle.models.values()]
        batches = 8 // config.batch_size
        assert len(calls) == config.epochs * batches * len(stores)
        for i in range(0, len(calls), len(stores)):
            assert calls[i:i + len(stores)] == stores


def per_model_step(bundle, sents, graphs, batch, lam, config):
    """The training step with one 2-D tape and one backward per model: the
    reference the stacked ``_batch_step`` must match bit for bit."""
    batch_sents = [sents[i] for i in batch]
    block = join_graphs([graphs[i] for i in batch])
    outs = {name: forward_one(model, batch_sents, block)
            for name, model in bundle.models.items()}
    target = ensemble_distribution(*(o.tag_fwds[0].final_logits.data for o in outs.values()))
    losses = {}
    for name, out in outs.items():
        sup = supervised_loss(out, batch_sents, config.alpha, config.aux_weight)
        kl = kl_to_ensemble(out.tag_dist, target, block.word_counts)
        if lam >= 1.0:
            total = sup
        elif lam <= 0.0:
            total = kl
        else:
            total = tc.add(tc.scale(sup, lam), tc.scale(kl, 1.0 - lam))
        losses[name] = tc.scale(total, 1.0 / len(batch))
    for loss in losses.values():
        tc.backward(loss)
    for model in bundle.models.values():
        model.store.adam_step(config.learning_rate)
    return {name: float(loss.data) for name, loss in losses.items()}


STEP_CASES = {
    **{f"lam{lam}-{'glosses' if gloss else 'no-glosses'}": (lam, gloss, (), GraphOptions())
       for lam in (0.0, 0.5, 1.0) for gloss in (True, False)},
    "disabled-v": (0.5, True, ("v",), GraphOptions()),
    "merged": (0.5, True, (), GraphOptions(no_subsentence_nodes=True)),
}


class TestStackedStep:
    """One training step is one tape: the models' encoders stacked on a
    model axis, then each model's heads on its slice."""

    @pytest.mark.parametrize("case", STEP_CASES)
    def test_matches_per_model_tapes_bit_for_bit(self, case, tiny_corpus, tiny_vocab):
        lam, gloss, disabled, options = STEP_CASES[case]
        enc = replace(SMALL_ENC, use_gloss_fusion=gloss)
        config = TrainConfig(batch_size=4, alpha=0.3)
        sents = tiny_corpus[:8]
        graphs = [build_graph(s, tiny_vocab, options) for s in sents]
        assert join_graphs(graphs).gloss_rows.size > 0
        kwargs = dict(disabled_models=disabled, top_k_deprels=options.top_k_deprels)
        stacked = build_bundle(tiny_vocab, enc, np.random.default_rng(4), 6, **kwargs)
        reference = build_bundle(tiny_vocab, enc, np.random.default_rng(4), 6, **kwargs)
        for batch in ([0, 1, 2, 3], [4, 5, 6, 7], [2, 5, 7]):
            got = distill._batch_step(stacked, sents, graphs, batch, lam, config)
            want = per_model_step(reference, sents, graphs, batch, lam, config)
            assert got == want
        for name, model in stacked.models.items():
            for pname, p in model.store.params.items():
                want = reference.models[name].store.params[pname]
                assert p.data.tobytes() == want.data.tobytes(), f"{name}:{pname}"
            assert model.store.block.tobytes() == reference.models[name].store.block.tobytes()

    @pytest.mark.parametrize("disabled", [(), ("v",)])
    def test_stacked_weights_are_views_of_every_store(self, tiny_vocab, disabled):
        bundle = fresh_bundle(tiny_vocab, disabled_models=disabled)
        assert set(bundle.enc) == set(bundle.models["p"].enc)
        for key, w in bundle.enc.items():
            assert w.shape[0] == len(bundle.models)
            for m, model in enumerate(bundle.models.values()):
                assert np.shares_memory(w.data, model.store.block), key
                assert np.shares_memory(w.grad_home, model.store.block), key
                np.testing.assert_array_equal(w.data[m], model.enc[key].data)

    @pytest.mark.parametrize("kwargs", [{}, {"disabled_models": ("v",)}, {"share_encoder": True}],
                             ids=["plain", "disabled-v", "share-encoder"])
    def test_classifiers_are_stacked_at_one_column(self, tiny_vocab, tmp_path, kwargs):
        # Every model keeps its classifier at the same column of its row, a
        # model that borrows an encoder too, so one view per weight reads all.
        bundle = fresh_bundle(tiny_vocab, **kwargs)
        distill.save_bundle(bundle, tmp_path, selected="p")
        for b in (bundle, distill.load_bundle(tmp_path)[0]):
            assert set(b.head) == {"cls/w", "cls/emb"}
            for key, w in b.head.items():
                assert w.shape == (len(b.models), *b.models["p"].head[key].shape)
                for m, model in enumerate(b.models.values()):
                    assert w.data[m].ctypes.data == model.head[key].data.ctypes.data, key
                    assert w.grad_home[m].ctypes.data == model.head[key].grad_home.ctypes.data

    def test_shared_encoder_is_an_axis_of_one(self, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab, share_encoder=True)
        owner = bundle.models["p"]
        for key, w in bundle.enc.items():
            assert w.shape == (1, *owner.enc[key].shape)
            assert np.shares_memory(w.data, owner.store.block)


# Each case: the encoder settings that differ from SMALL_ENC, build_bundle's
# keyword arguments and the graph options.
CENSUS_CASES = {
    "glosses-gat-1": ({}, {}, GraphOptions()),
    "no-definitions": ({"use_gloss_fusion": False}, {}, GraphOptions()),
    "gat-0": ({"n_gat_layers": 0}, {}, GraphOptions()),
    "gat-2": ({"n_gat_layers": 2}, {}, GraphOptions()),
    "no-definitions-gat-0": ({"use_gloss_fusion": False, "n_gat_layers": 0}, {}, GraphOptions()),
    "merged": ({}, {}, GraphOptions(no_subsentence_nodes=True)),
    "share-encoder": ({}, {"share_encoder": True}, GraphOptions()),
    "disabled-t": ({}, {"disabled_models": ("t",)}, GraphOptions()),
}


class TestParameterCensus:
    """A layout lists only parameters that the forward reads: in one
    mixed-lambda step every parameter that a store owns gets a gradient
    (a shared encoder counts in its owner's store)."""

    @pytest.mark.parametrize("case", CENSUS_CASES)
    def test_every_owned_parameter_gets_a_gradient(self, case, tiny_corpus, tiny_vocab,
                                                   monkeypatch):
        enc_kwargs, kwargs, options = CENSUS_CASES[case]
        bundle = build_bundle(tiny_vocab, replace(SMALL_ENC, **enc_kwargs),
                              np.random.default_rng(4), 6,
                              top_k_deprels=options.top_k_deprels, **kwargs)
        graphs = [build_graph(s, tiny_vocab, options) for s in tiny_corpus]
        assert join_graphs(graphs).gloss_rows.size > 0
        names = {id(model.store): name for name, model in bundle.models.items()}
        seen, missing = [], []
        adam_step = tc.ParamStore.adam_step

        def census(store, lr):
            seen.append(names[id(store)])
            missing.extend(f"{names[id(store)]}:{pname}" for pname, p in store.params.items()
                           if p.grad is None and np.shares_memory(p.data, store.block))
            adam_step(store, lr)

        monkeypatch.setattr(tc.ParamStore, "adam_step", census)
        distill._batch_step(bundle, tiny_corpus, graphs, list(range(len(tiny_corpus))), 0.5,
                            TrainConfig(alpha=0.3))
        assert seen == list(bundle.models)
        assert missing == []


class TestSelection:
    def test_picks_highest_extraction_f1(self):
        scores = {"p": (0.80, 0.9), "t": (0.85, 0.1), "v": (0.83, 0.99)}
        assert distill.select_from_scores(scores) == "t"

    def test_full_tie_prefers_first_in_order(self):
        scores = {"p": (0.5, 0.5), "t": (0.5, 0.5), "v": (0.5, 0.5)}
        assert distill.select_from_scores(scores) == "p"

    def test_extraction_tie_falls_to_classification(self):
        scores = {"p": (0.5, 0.4), "t": (0.5, 0.6), "v": (0.1, 1.0)}
        assert distill.select_from_scores(scores) == "t"

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            distill.select_from_scores({})

    def test_select_best_requires_dev(self, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        with pytest.raises(ValueError, match="empty dev"):
            distill.select_best(bundle, [])

    def test_select_best_returns_scores_per_model(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        name, scores = distill.select_best(bundle, tiny_corpus[8:])
        assert name in scores
        assert set(scores) == {"p", "t", "v"}


class TestMeanEnsembleKL:
    def test_single_model_has_zero_divergence(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab, disabled_models=("t", "v"))
        sents = tiny_corpus[:4]
        graphs = [build_graph(s, tiny_vocab) for s in sents]
        kl = distill.mean_ensemble_kl(bundle, sents, graphs)
        assert set(kl) == {"p"}
        assert abs(kl["p"]) < 1e-12

    def test_three_models_nonnegative(self, tiny_corpus, tiny_vocab):
        bundle = fresh_bundle(tiny_vocab)
        sents = tiny_corpus[:4]
        graphs = [build_graph(s, tiny_vocab) for s in sents]
        kl = distill.mean_ensemble_kl(bundle, sents, graphs)
        assert set(kl) == {"p", "t", "v"}
        for value in kl.values():
            assert value > -1e-12

    def test_chunks_match_the_sentence_by_sentence_mean(self):
        sents = generate_synthetic(SyntheticConfig(n_sentences=PREDICT_CHUNK + 5, seed=4))
        vocab = build_vocab(sents)
        bundle = fresh_bundle(vocab)
        graphs = [build_graph(s, vocab) for s in sents]
        totals = {name: 0.0 for name in bundle.models}
        for sent, graph in zip(sents, graphs):
            outs = {name: forward_one(m, [sent], graph.block)
                    for name, m in bundle.models.items()}
            target = ensemble_distribution(*(o.tag_fwds[0].final_logits.data for o in outs.values()))
            for name, out in outs.items():
                totals[name] += float(tc.kl_divergence(target, out.tag_dist).data)
        n_tokens = sum(len(s.tokens) for s in sents)
        kl = distill.mean_ensemble_kl(bundle, sents, graphs)
        for name, total in totals.items():
            np.testing.assert_allclose(kl[name], total / n_tokens, rtol=1e-12)


class TestPersistence:
    def test_bundle_round_trip(self, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab, top_k_deprels=5)
        opts = GraphOptions(no_pos=True, top_k_deprels=5)
        distill.save_bundle(bundle, tmp_path, graph_options=opts)
        loaded, loaded_opts = distill.load_bundle(tmp_path)
        assert loaded_opts == opts
        assert tuple(loaded.models) == tuple(bundle.models)
        assert loaded.config == bundle.config
        assert loaded.vocab.token_to_id == bundle.vocab.token_to_id
        for name in bundle.models:
            got = loaded.models[name].store.params
            want = bundle.models[name].store.params
            assert set(got) == set(want)
            for pname in want:
                np.testing.assert_array_equal(got[pname].data, want[pname].data)

    def test_selected_model_round_trip(self, tiny_corpus, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab)
        distill.save_bundle(bundle, tmp_path, selected="t",
                            selected_scores={"extraction_f1": 0.5})
        name, model, vocab, opts = distill.load_selected(tmp_path)
        assert name == model.name == "t"
        sent = tiny_corpus[0]
        graph = build_graph(sent, vocab, opts)
        a = predict(bundle.models["t"], sent, graph, tiny_vocab).to_record()
        b = predict(model, sent, graph, vocab).to_record()
        assert a == b

    def test_vocab_with_pos_table_is_refused(self, tiny_vocab, tmp_path):
        # Directories that stored a POS table also hold JSON checkpoints,
        # which are refused first; the key is unknown like any other.
        bundle = fresh_bundle(tiny_vocab)
        distill.save_bundle(bundle, tmp_path, selected="v")
        meta_path = tmp_path / distill.BUNDLE_META
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        assert "pos_to_id" not in meta["vocab"]
        meta["vocab"]["pos_to_id"] = {"<unk>": 0, "NN": 1}
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            distill.load_selected(tmp_path)
        assert str(err.value) == f"{meta_path}: vocab has unknown keys ['pos_to_id']"

    def test_edge_embedding_sized_by_top_k(self, tiny_corpus, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab, top_k_deprels=1)
        n_labels = len(edge_label_index(tiny_vocab, 1))
        assert n_labels == 1 + 4
        for model in bundle.models.values():
            assert model.enc["edge_emb"].data.shape[0] == n_labels
        opts = GraphOptions(top_k_deprels=1)
        distill.save_bundle(bundle, tmp_path, graph_options=opts, selected="p")
        _, model, vocab, loaded_opts = distill.load_selected(tmp_path)
        graph = build_graph(tiny_corpus[0], vocab, loaded_opts)
        assert graph.block.label_ids.max() < n_labels
        predict(model, tiny_corpus[0], graph, vocab)

    def test_edge_table_mismatch_rejected_before_writing(self, tiny_vocab, tmp_path):
        # Built for one top_k_deprels and saved with another: the edge table
        # has other rows than the layout that the save would record.
        distill.save_bundle(fresh_bundle(tiny_vocab), tmp_path, selected="p")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="top_k_deprels=5"):
            distill.save_bundle(fresh_bundle(tiny_vocab, seed=12), tmp_path,
                                graph_options=GraphOptions(top_k_deprels=5), selected="t")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        out = tmp_path / "model"
        with pytest.raises(ValueError) as err:
            distill.save_bundle(fresh_bundle(tiny_vocab, top_k_deprels=1), out, selected="p")
        assert str(err.value) == (
            "save_bundle: model 'p' disagrees at parameter 7 with the layout of its settings "
            "and top_k_deprels=8: has ['enc/edge_emb', [5, 4]], "
            f"expected ['enc/edge_emb', [{len(edge_label_index(tiny_vocab))}, 4]]")
        assert not out.exists()

    @pytest.mark.parametrize("enc_kwargs", [{"use_gloss_fusion": False}, {"n_gat_layers": 0}],
                             ids=["no-definitions", "gat-0"])
    def test_trained_model_serves_the_same_records_after_loading(
        self, tiny_corpus, tiny_vocab, tmp_path, enc_kwargs
    ):
        bundle = build_bundle(tiny_vocab, replace(SMALL_ENC, **enc_kwargs),
                              np.random.default_rng(11), label_emb_dim=6)
        train_sents, dev_sents = tiny_corpus[:8], tiny_corpus[8:]
        train(bundle, train_sents, dev_sents, TrainConfig(epochs=2, batch_size=4, seed=1))
        selected, _ = distill.select_best(bundle, dev_sents)
        distill.save_bundle(bundle, tmp_path, selected=selected)
        name, model, vocab, opts = distill.load_selected(tmp_path)
        assert name == selected
        graphs = [build_graph(s, vocab, opts) for s in tiny_corpus]
        want = [p.to_record() for p in predict_batch(bundle.models[selected], graphs)]
        assert [p.to_record() for p in predict_batch(model, graphs)] == want
        assert sum(rec["label"] == "simile" for rec in want) > 0

    def test_missing_selection_marker(self, tiny_vocab, tmp_path):
        distill.save_bundle(fresh_bundle(tiny_vocab), tmp_path)
        with pytest.raises(ValueError, match=r"bundle\.json: selected is missing$"):
            distill.load_selected(tmp_path)

    def test_missing_metadata(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="metadata"):
            distill.load_bundle(tmp_path)

    def test_missing_model_checkpoint(self, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab)
        distill.save_bundle(bundle, tmp_path)
        (tmp_path / "model_v.npy").unlink()
        with pytest.raises(FileNotFoundError, match="model_v"):
            distill.load_bundle(tmp_path)

    def test_layouts_naming_no_model_refused(self, tiny_vocab, tmp_path):
        distill.save_bundle(fresh_bundle(tiny_vocab), tmp_path)
        path = tmp_path / distill.BUNDLE_META
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["layouts"] = {}
        path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match=r"bundle\.json: layouts names no model$"):
            distill.load_bundle(tmp_path)

    def test_dropped_parameter_detected(self, tiny_vocab, tmp_path):
        bundle = fresh_bundle(tiny_vocab)
        distill.save_bundle(bundle, tmp_path)
        path = tmp_path / distill.BUNDLE_META
        meta = json.loads(path.read_text(encoding="utf-8"))
        layout = meta["layouts"]["p"]
        i = [pname for pname, _ in layout].index("head/cls/w")
        del layout[i]
        path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bundle\.json: layout of model 'p' disagrees at "
                                             rf"parameter {i}: .* expected \['head/cls/w'"):
            distill.load_bundle(tmp_path)

    @pytest.mark.parametrize("kwargs", [{}, {"share_encoder": True},
                                        {"disabled_models": ("v",)}],
                             ids=["plain", "share-encoder", "disable-v"])
    def test_checkpoint_round_trip_is_bit_identical(self, tiny_vocab, tmp_path, kwargs):
        # A shared encoder lives in the first model's store; the others'
        # checkpoints carry it too, and loading puts it in their own rows.
        bundle = fresh_bundle(tiny_vocab, **kwargs)
        rng = np.random.default_rng(5)
        for model in bundle.models.values():  # weights unlike a fresh draw's
            for name, p in model.store.params.items():  # a borrowed encoder is set by its owner
                if np.shares_memory(p.data, model.store.block):
                    set_param(model.store, name, rng.normal(size=p.shape))
        distill.save_bundle(bundle, tmp_path, selected=next(iter(bundle.models)))
        loaded, _ = distill.load_bundle(tmp_path)
        assert tuple(loaded.models) == tuple(bundle.models)
        for name, model in bundle.models.items():
            want = np.concatenate([p.data.reshape(-1) for p in model.store.params.values()])
            got = loaded.models[name].store
            assert all(np.shares_memory(p.data, got.block) for p in got.params.values())
            assert got.block[tc.DATA].tobytes() == want.tobytes()
            saved = np.load(tmp_path / f"model_{name}.npy", allow_pickle=False)
            assert saved.dtype == np.float64 and saved.tobytes() == want.tobytes()
        if kwargs.get("share_encoder"):
            assert len(bundle.enc["tok_emb"].data) == 1
            assert len(loaded.enc["tok_emb"].data) == len(bundle.models)

    @pytest.mark.parametrize("kwargs", [{}, {"share_encoder": True},
                                        {"disabled_models": ("v",)}],
                             ids=["plain", "share-encoder", "disable-v"])
    def test_recorded_layouts_are_the_model_layouts(self, tiny_vocab, tmp_path, kwargs):
        bundle = fresh_bundle(tiny_vocab, **kwargs)
        distill.save_bundle(bundle, tmp_path)
        meta = json.loads((tmp_path / distill.BUNDLE_META).read_text(encoding="utf-8"))
        assert list(meta["layouts"]) == list(bundle.models)
        n_edge_labels = len(edge_label_index(tiny_vocab))
        for name, model in bundle.models.items():
            layout = model_layout(name, tiny_vocab.size, n_edge_labels, SMALL_ENC, 6)
            assert meta["layouts"][name] == [[p.name, list(p.shape)] for p in layout]
            assert meta["layouts"][name] == [[pname, list(p.shape)]
                                             for pname, p in model.store.params.items()]
