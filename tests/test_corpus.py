import json

import numpy as np
import pytest

from simrec import corpus as corpus_module
from simrec.corpus import (
    CATEGORY_NOUNS,
    CorpusError,
    RESERVED_TOKENS,
    SyntheticConfig,
    AnnotatedSentence,
    TokenAnn,
    UNK_TOKEN,
    build_vocab,
    canonical_sentence,
    check_json,
    generate_synthetic,
    load_corpus,
    save_corpus,
    sentence_from_record,
    sentence_to_record,
    split_folds,
    validate_sentence,
)


def make_sentence(n=4, comparator=2, label="literal", tags=None, glosses=None):
    tokens = tuple(
        TokenAnn(surface=f"w{i}", pos="NN" if i in (1, n) else "VV",
                 head=0 if i == 2 else 2, deprel="root" if i == 2 else "nsubj")
        for i in range(1, n + 1)
    )
    return AnnotatedSentence(
        tokens=tokens,
        comparator_index=comparator,
        glosses=glosses or {},
        label=label,
        tags=tuple(tags) if tags else tuple("O" for _ in range(n)),
    )


class TestValidation:
    def test_valid_sentence_passes(self):
        validate_sentence(make_sentence())

    def test_comparator_out_of_range(self):
        with pytest.raises(CorpusError, match="comparator_index"):
            validate_sentence(make_sentence(comparator=9))

    def test_zero_tokens_rejected(self):
        sent = AnnotatedSentence(tokens=(), comparator_index=1)
        with pytest.raises(CorpusError, match="token count"):
            validate_sentence(sent)

    def test_over_max_tokens_rejected(self):
        tokens = tuple(
            TokenAnn(f"w{i}", "NN", 0 if i == 1 else 1, "root" if i == 1 else "nsubj")
            for i in range(1, 102)
        )
        sent = AnnotatedSentence(tokens=tokens, comparator_index=1,
                                 tags=tuple("O" for _ in tokens))
        with pytest.raises(CorpusError, match="token count"):
            validate_sentence(sent)

    def test_bad_label(self):
        with pytest.raises(CorpusError, match="label"):
            validate_sentence(make_sentence(label="metaphor"))

    def test_bad_tag_value(self):
        with pytest.raises(CorpusError, match="tags"):
            validate_sentence(make_sentence(label="simile", tags=["O", "X", "O", "O"]))

    def test_literal_with_component_tags(self):
        with pytest.raises(CorpusError, match="literal"):
            validate_sentence(make_sentence(tags=["O", "T", "O", "O"]))

    def test_tags_length_mismatch(self):
        with pytest.raises(CorpusError, match="tags length"):
            validate_sentence(make_sentence(tags=["O", "O"]))

    def test_self_loop_head(self):
        tokens = (TokenAnn("a", "NN", 1, "nsubj"), TokenAnn("b", "VV", 0, "root"))
        sent = AnnotatedSentence(tokens=tokens, comparator_index=1, tags=("O", "O"))
        with pytest.raises(CorpusError, match="depends on itself"):
            validate_sentence(sent)

    def test_head_out_of_range(self):
        tokens = (TokenAnn("a", "NN", 5, "nsubj"), TokenAnn("b", "VV", 0, "root"))
        sent = AnnotatedSentence(tokens=tokens, comparator_index=1, tags=("O", "O"))
        with pytest.raises(CorpusError, match="head of token 1"):
            validate_sentence(sent)

    def test_gloss_on_non_noun(self):
        with pytest.raises(CorpusError, match="non-noun"):
            validate_sentence(make_sentence(glosses={2: ("some", "verb")}))

    def test_gloss_key_out_of_range(self):
        with pytest.raises(CorpusError, match="gloss key"):
            validate_sentence(make_sentence(glosses={9: ("far", "thing")}))


class TestTokenAnn:
    def test_fields_cannot_be_set(self):
        tok = TokenAnn("sheep", "NN", 3, "nsubj")
        with pytest.raises(AttributeError):
            tok.head = 2

    def test_equal_tokens_hash_equal(self):
        a, b = TokenAnn("sheep", "NN", 3, "nsubj"), TokenAnn("sheep", "NN", 3, "nsubj")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TokenAnn("sheep", "NN", 2, "nsubj")
        assert a == ("sheep", "NN", 3, "nsubj")

    def test_replace_makes_a_new_token(self):
        tok = TokenAnn("sheep", "NN", 3, "nsubj")
        moved = tok._replace(head=0, deprel="root")
        assert moved == TokenAnn("sheep", "NN", 0, "root")
        assert tok.head == 3 and tok.deprel == "nsubj"


class TestSerialization:
    def test_record_round_trip(self):
        sent = canonical_sentence()
        again = sentence_from_record(sentence_to_record(sent))
        assert again == sent

    def test_gloss_keys_written_as_strings(self):
        record = sentence_to_record(canonical_sentence())
        assert all(isinstance(k, str) for k in record["glosses"])
        assert set(record["glosses"]) == {"2", "6"}

    def test_corpus_file_round_trip(self, tmp_path):
        corpus = generate_synthetic(SyntheticConfig(n_sentences=12, seed=5))
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, corpus)
        assert load_corpus(path) == corpus

    @pytest.mark.parametrize("old", [None, b"an older corpus\n"], ids=["new", "existing"])
    def test_failed_save_leaves_no_partial_corpus(self, tmp_path, monkeypatch, old):
        path = tmp_path / "corpus.jsonl"
        if old is not None:
            path.write_bytes(old)
        written = []

        def third_fails(sent):
            written.append(sent)
            if len(written) == 3:
                raise RuntimeError("record 3 fails")
            return sentence_to_record(sent)

        monkeypatch.setattr(corpus_module, "sentence_to_record", third_fails)
        with pytest.raises(RuntimeError, match="record 3 fails"):
            save_corpus(path, generate_synthetic(SyntheticConfig(n_sentences=5, seed=5)))
        assert len(written) == 3
        assert (path.read_bytes() if path.exists() else None) == old
        assert not (tmp_path / "corpus.jsonl.tmp").exists()

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(sentence_to_record(canonical_sentence()))
        path.write_text(good + "\n" + "{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_load_reports_invalid_record_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = sentence_to_record(canonical_sentence())
        record["comparator_index"] = 99
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_missing_field_rejected(self):
        record = sentence_to_record(canonical_sentence())
        del record["tokens"]
        with pytest.raises(CorpusError, match="tokens is missing"):
            sentence_from_record(record)


class TestVocabulary:
    def test_reserved_ids_first(self, small_vocab):
        for i, tok in enumerate(RESERVED_TOKENS):
            assert small_vocab.token_to_id[tok] == i

    def test_unknown_token_maps_to_unk(self, small_vocab):
        assert small_vocab.token_id("zzz-never-seen") == small_vocab.token_to_id[UNK_TOKEN]

    def test_gloss_tokens_included(self, small_corpus, small_vocab):
        gloss_words = {
            w for s in small_corpus for g in s.glosses.values() for w in g
        }
        assert gloss_words <= set(small_vocab.token_to_id)

    def test_deprel_ranking_by_frequency_then_name(self, small_corpus, small_vocab):
        freq = {}
        for s in small_corpus:
            for t in s.tokens:
                freq[t.deprel] = freq.get(t.deprel, 0) + 1
        expected = sorted(freq, key=lambda r: (-freq[r], r))
        assert small_vocab.deprel_ranking == expected

    def test_min_freq_filters_rare_tokens(self):
        corpus = generate_synthetic(SyntheticConfig(n_sentences=30, seed=2))
        full = build_vocab(corpus, min_freq=1)
        pruned = build_vocab(corpus, min_freq=5)
        assert pruned.size < full.size
        assert all(t in full.token_to_id for t in pruned.token_to_id)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            build_vocab([])


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_sentences=25, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert a == b

    def test_all_sentences_valid(self):
        for sent in generate_synthetic(SyntheticConfig(n_sentences=60, seed=1)):
            validate_sentence(sent)

    def test_label_balance_roughly_even(self):
        corpus = generate_synthetic(SyntheticConfig(n_sentences=400, seed=3))
        n_simile = sum(1 for s in corpus if s.is_simile)
        assert 140 <= n_simile <= 260

    def test_simile_pairs_cross_category_when_clean(self):
        corpus = generate_synthetic(SyntheticConfig(n_sentences=80, seed=9))
        for sent in corpus:
            cats = [gloss[-1] for _, gloss in sorted(sent.glosses.items())]
            assert len(cats) == 2
            if sent.is_simile:
                assert cats[0] != cats[1]
            else:
                assert cats[0] == cats[1]

    def test_simile_tags_mark_the_two_nouns(self):
        for sent in generate_synthetic(SyntheticConfig(n_sentences=50, seed=4)):
            if not sent.is_simile:
                assert all(t == "O" for t in sent.tags)
                continue
            t_idx = [i for i, t in enumerate(sent.tags, 1) if t == "T"]
            v_idx = [i for i, t in enumerate(sent.tags, 1) if t == "V"]
            assert len(t_idx) == 1 and len(v_idx) == 1
            assert set(t_idx + v_idx) == set(sent.glosses)

    def test_noise_flips_stay_valid(self):
        corpus = generate_synthetic(
            SyntheticConfig(n_sentences=100, seed=6, noise_rate=0.5)
        )
        for sent in corpus:
            validate_sentence(sent)
        labels = {s.label for s in corpus}
        assert labels == {"simile", "literal"}

    def test_noisy_labels_break_category_rule(self):
        # With heavy noise some sentences must violate the clean pairing rule.
        corpus = generate_synthetic(
            SyntheticConfig(n_sentences=200, seed=6, noise_rate=0.5)
        )
        violations = 0
        for sent in corpus:
            cats = [gloss[-1] for _, gloss in sorted(sent.glosses.items())]
            if sent.is_simile == (cats[0] == cats[1]):
                violations += 1
        assert violations > 20

    def test_too_small_request_rejected(self):
        with pytest.raises(CorpusError):
            generate_synthetic(SyntheticConfig(n_sentences=1, seed=0))

    def test_negative_seed_is_named(self):
        with pytest.raises(CorpusError, match="seed must be non-negative, got -1"):
            generate_synthetic(SyntheticConfig(n_sentences=5, seed=-1))

    def test_canonical_sentence_shape(self, fig_sentence):
        assert len(fig_sentence.tokens) == 6
        assert fig_sentence.comparator_index == 4
        assert fig_sentence.tokens[1].surface == "sheep"
        assert fig_sentence.tokens[5].surface == "clouds"
        assert fig_sentence.tags == ("O", "T", "O", "O", "O", "V")
        assert sorted(fig_sentence.glosses) == [2, 6]


class TestFolds:
    def test_folds_partition_corpus(self, small_corpus):
        folds = split_folds(small_corpus, 5, seed=1)
        assert len(folds) == 5
        seen = sorted(id(s) for test in folds for s in test)
        assert seen == sorted(id(s) for s in small_corpus)

    def test_fold_sizes_differ_by_at_most_one(self):
        corpus = generate_synthetic(SyntheticConfig(n_sentences=23, seed=0))
        sizes = [len(test) for test in split_folds(corpus, 5, seed=0)]
        assert sizes == [5, 5, 5, 4, 4]

    def test_deterministic_under_seed(self, small_corpus):
        assert split_folds(small_corpus, 4, seed=9) == split_folds(small_corpus, 4, seed=9)
        # The folds of 11 sentences under seed 9, each in corpus order, as
        # the split has always drawn them.
        assert split_folds(list(range(11)), 4, seed=9) == [[2, 5, 7], [8, 9, 10], [3, 4, 6],
                                                           [0, 1]]

    def test_k_larger_than_corpus_rejected(self, small_corpus):
        with pytest.raises(CorpusError):
            split_folds(small_corpus, len(small_corpus) + 1)

    def test_k_below_two_rejected(self, small_corpus):
        with pytest.raises(CorpusError):
            split_folds(small_corpus, 1)

    def test_negative_seed_is_named(self, small_corpus):
        with pytest.raises(CorpusError, match="seed must be non-negative, got -1"):
            split_folds(small_corpus, 2, seed=-1)


def _tokens(*heads, pos="NN"):
    return tuple(TokenAnn(f"w{i}", pos, h, "dep") for i, h in enumerate(heads, start=1))


def _sentence(heads=(0, 1, 1, 1), comparator=2, label="literal", tags=None, glosses=None):
    return AnnotatedSentence(tokens=_tokens(*heads), comparator_index=comparator,
                             glosses=glosses or {}, label=label,
                             tags=tuple(tags) if tags else ("O",) * len(heads))


def _record(**edits):
    record = sentence_to_record(canonical_sentence())
    for key, value in edits.items():
        if key.startswith("tok2_"):
            record["tokens"][1][key[5:]] = value
        else:
            record[key] = value
    return record


class TestErrorMessagesArePinned:
    """The whole text of every corpus error, so that a faster reader keeps
    each message and the order in which the checks fire."""

    @pytest.mark.parametrize("sent, max_tokens, message", [
        (AnnotatedSentence(tokens=(), comparator_index=1), 100,
         "s: token count 0 outside [1, 100]"),
        (_sentence(), 3, "s: token count 4 outside [1, 3]"),
        (_sentence(heads=(0,) + (1,) * 100, tags=("O",) * 101), 500,
         "s: token count 101 outside [1, 100]"),
        (_sentence(comparator=9), 100, "s: comparator_index out of range (9 for N=4)"),
        (_sentence(comparator=0), 100, "s: comparator_index out of range (0 for N=4)"),
        (_sentence(label="metaphor"), 100,
         "s: label must be 'simile' or 'literal', got 'metaphor'"),
        (_sentence(tags=("O", "O")), 100, "s: tags length 2 != token count 4"),
        (_sentence(label="simile", tags=("T", "X", "V", "y")), 100,
         "s: tags[2] = 'X' not in ('T', 'V', 'O')"),
        # a literal sentence with a bad tag value after a non-O tag: the value fires
        (_sentence(tags=("O", "T", "", "O")), 100, "s: tags[3] = '' not in ('T', 'V', 'O')"),
        (_sentence(tags=("O", "O", "O", "V")), 100, "s: literal sentence carries non-O tags"),
        (_sentence(heads=(0, 5, 1, 1)), 100, "s: head of token 2 out of range (5)"),
        (_sentence(heads=(0, 1, -1, 1)), 100, "s: head of token 3 out of range (-1)"),
        (_sentence(heads=(0, 2, 1, 1)), 100, "s: token 2 depends on itself"),
        # a self-dependent head before an out-of-range one, and the reverse
        (_sentence(heads=(1, 0, 9, 1)), 100, "s: token 1 depends on itself"),
        (_sentence(heads=(0, 7, 3, 1)), 100, "s: head of token 2 out of range (7)"),
        (_sentence(glosses={9: ("far",)}), 100, "s: gloss key 9 out of range"),
        (_sentence(glosses={0: ("far",)}), 100, "s: gloss key 0 out of range"),
        (AnnotatedSentence(tokens=_tokens(0, 1, pos="VV"), comparator_index=1,
                           glosses={2: ("verb",)}, tags=("O", "O")), 100,
         "s: gloss key 2 points at non-noun POS 'VV'"),
    ])
    def test_validate_sentence(self, sent, max_tokens, message):
        with pytest.raises(CorpusError) as err:
            validate_sentence(sent, "s", max_tokens)
        assert str(err.value) == message

    @pytest.mark.parametrize("record, message", [
        ({}, "r: tokens is missing"),
        ([], "r: record must be an object, got []"),
        (_record(tokens=3), "r: tokens must be a list, got 3"),
        (_record(tokens=["w"]), 'r: tokens[1] must be an object, got "w"'),
        (_record(tok2_head="x"), 'r: tokens[2].head must be an integer, got "x"'),
        (_record(tok2_head=None), "r: tokens[2].head must be an integer, got null"),
        (_record(tok2_head=[2]), "r: tokens[2].head must be an integer, got [2]"),
        (_record(tok2_deprel=None, tok2_head="x"),
         'r: tokens[2].head must be an integer, got "x"'),
        (_record(glosses="clouds"), 'r: glosses must be an object, got "clouds"'),
        (_record(glosses={"two": ["w"]}),
         'r: glosses key must be a decimal integer, got "two"'),
        (_record(glosses={"2": 5}), 'r: glosses["2"] must be a list, got 5'),
        (_record(comparator_index="four"),
         'r: comparator_index must be an integer, got "four"'),
        (_record(comparator_index="four", glosses="x"),
         'r: comparator_index must be an integer, got "four"'),
        (_record(label=None, tags=None), "r: label must be a string, got null"),
        ({k: v for k, v in _record().items() if k != "label"}, "r: label is missing"),
        ({k: v for k, v in _record().items() if k != "tags"}, "r: tags is missing"),
        (_record(tok2_head=2), "r: token 2 depends on itself"),
        (_record(tags=["O", "T", "O", "O", "Q", "V"]), "r: tags[5] = 'Q' not in ('T', 'V', 'O')"),
        (_record(label="literal"), "r: literal sentence carries non-O tags"),
    ])
    def test_sentence_from_record(self, record, message):
        with pytest.raises(CorpusError) as err:
            sentence_from_record(record, "r")
        assert str(err.value) == message

    @pytest.mark.parametrize("value, kind, message", [
        ([*"abcd", 5, None], "list[str]", "f[5] must be a string, got 5"),
        ([*"abcd", None], "tuple[str, ...]", "f[5] must be a string, got null"),
        ({**{f"t{i}": i for i in range(1000)}, "t500": True}, "dict[str, int]",
         'f["t500"] must be an integer, got true'),
        ({"a": 1, "b": 2.5, "c": "x"}, "dict[str, float]", 'f["c"] must be a number, got "x"'),
        ({"1": "a", "2": "b", "03": "c", "4": "d"}, "dict[int, str]",
         'f key must be a decimal integer, got "03"'),
        ({"1": "a", "2": 2, "03": "c"}, "dict[int, str]", 'f["2"] must be a string, got 2'),
    ])
    def test_check_json_names_the_first_item_at_fault(self, value, kind, message):
        with pytest.raises(CorpusError) as err:
            check_json(value, kind, "r", "f")
        assert str(err.value) == f"r: {message}"

    @pytest.mark.parametrize("value, kind", [
        ([], "list[str]"), ({}, "dict[int, str]"), ({"1": "a", "-2": "b"}, "dict[int, str]"),
        ({"a": 1, "b": 2.5}, "dict[str, float]"), ([["x"], []], "list[list[str]]"),
    ])
    def test_check_json_passes_items_of_their_kind(self, value, kind):
        check_json(value, kind, "r", "f")

    @pytest.mark.parametrize("edits, message", [
        ({"tok2_head": "3"}, 'tokens[2].head must be an integer, got "3"'),
        ({"tok2_head": 3.9}, "tokens[2].head must be an integer, got 3.9"),
        ({"tok2_head": True}, "tokens[2].head must be an integer, got true"),
        ({"tok2_surface": None}, "tokens[2].surface must be a string, got null"),
        ({"tok2_deprel": 7}, "tokens[2].deprel must be a string, got 7"),
        ({"comparator_index": "4"}, 'comparator_index must be an integer, got "4"'),
        ({"comparator_index": 4.5}, "comparator_index must be an integer, got 4.5"),
        ({"label": True}, "label must be a string, got true"),
        ({"tok2_extra": 1}, "tokens[2] has unknown keys ['extra']"),
        ({"tags": "OOOOOO"}, 'tags must be a list, got "OOOOOO"'),
        ({"tags": ["O", "O", "O", "O", "O", None]}, "tags[6] must be a string, got null"),
        ({"glosses": {" 2": ["woolly"]}}, 'glosses key must be a decimal integer, got " 2"'),
        ({"glosses": {"02": ["woolly"]}}, 'glosses key must be a decimal integer, got "02"'),
        ({"glosses": {"2": "woolly"}}, 'glosses["2"] must be a list, got "woolly"'),
        ({"glosses": {"2": ["woolly", 3]}}, 'glosses["2"][2] must be a string, got 3'),
        ({"gloss": {"2": ["woolly"]}}, "record has unknown keys ['gloss']"),
    ])
    def test_records_of_the_wrong_type_are_refused(self, edits, message):
        # Each of these loaded once, through int() or str() or by ignoring a key.
        with pytest.raises(CorpusError) as err:
            sentence_from_record(_record(**edits), "r")
        assert str(err.value) == f"r: {message}"

    @pytest.mark.parametrize("lines, max_tokens, message", [
        (["GOOD", "{not json"], 100, "line 2: invalid JSON (Expecting property name enclosed "
         "in double quotes: line 1 column 2 (char 1))"),
        (["GOOD", "", "  ", "[1, 2]"], 100,
         "line 4: record must be an object, got [1, 2]"),
        (["GOOD", '{"a": 1} {"b": 2}'], 100,
         "line 2: invalid JSON (Extra data: line 1 column 10 (char 9))"),
        (["GOOD", "GOOD", json.dumps(_record(comparator_index=99))], 100,
         "line 3: comparator_index out of range (99 for N=6)"),
        (["GOOD", json.dumps(_record(tok2_head=2)), "{oops"], 100,
         "line 2: token 2 depends on itself"),
        (["GOOD"], 5, "line 1: token count 6 outside [1, 5]"),
    ])
    def test_load_corpus(self, tmp_path, lines, max_tokens, message):
        good = json.dumps(sentence_to_record(canonical_sentence()))
        path = tmp_path / "c.jsonl"
        path.write_text("".join((good if line == "GOOD" else line) + "\n" for line in lines),
                        encoding="utf-8")
        with pytest.raises(CorpusError) as err:
            load_corpus(path, max_tokens)
        assert str(err.value) == f"{path}: {message}"
