"""Every record that simrec reads refuses a value of the wrong JSON type.

For each record kind (a corpus line, the run config and ``bundle.json``)
each field below is set in turn to each value of ``MUTANTS``, and each
required field is deleted. A value whose JSON type is not the type that
the field holds in a file simrec wrote, and every deletion, must exit 1
with one ``error:`` line that names the file (and the line of a corpus)
and the field. So must each number of ``MEANINGLESS``, which has the right
type but no meaning for its field, and each setting of
``DISABLED_MODELS``, which leaves no valid set of models. ``predict``
must write nothing and ``train`` must make no output directory. The cases
are a fixed enumeration, so every run checks the same ones.
"""

import json
import re
import shutil
from dataclasses import asdict, fields

import pytest

from simrec.cli import RunConfig, main
from simrec.corpus import SyntheticConfig, canonical_sentence, generate_synthetic, save_corpus
from simrec.corpus import sentence_to_record
from simrec.encoder import EncoderConfig
from simrec.hetgraph import GraphOptions

MUTANTS = (None, True, 1.5, "x", [], {})
# What an error calls each JSON type; a float field also takes an integer.
WHAT = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
        list: "a list", dict: "an object"}

# Fields as the errors name them: ``.name`` a field, ``[i]`` the i-th item
# of a list (from 1) and ``["key"]`` an entry of an object. ``SEL`` is the
# selected model.
CORPUS_FIELDS = [
    "tokens", "tokens[2]", "tokens[2].surface", "tokens[2].pos", "tokens[2].head",
    "tokens[2].deprel", "comparator_index", "glosses", 'glosses["2"]', 'glosses["2"][1]',
    "label", "tags", "tags[1]",
]
CONFIG_FIELDS = [f.name for f in fields(RunConfig)] + ["disable_model[1]"]
BUNDLE_FIELDS = [
    "encoder", *(f"encoder.{f.name}" for f in fields(EncoderConfig)), "label_emb_dim",
    "layouts", 'layouts["SEL"]',
    "graph_options", *(f"graph_options.{f.name}" for f in fields(GraphOptions)),
]
# The vocabulary and the selection are fields of ``bundle.json`` too.
VOCAB_FIELDS = ["vocab", "vocab.token_to_id", 'vocab.token_to_id["<pad>"]',
                "vocab.deprel_ranking", "vocab.deprel_ranking[1]"]
SELECTED_FIELDS = ["selected", "scores"]
# Fields that a record may leave out; every run-config key may be left out.
OPTIONAL = {"glosses", "scores"}
# Numbers of the right JSON type that mean nothing for a field, with the
# message that refuses them; a value that the field takes is left out.
MEANINGLESS = {
    "learning_rate": ("TrainConfig: learning_rate must be finite and positive",
                      (float("nan"), float("inf"), float("-inf"), -1, 0)),
    "aux_weight": ("TrainConfig: aux_weight must be finite and non-negative",
                   (float("nan"), float("inf"), float("-inf"), -1)),
    "leaky_slope": ("EncoderConfig: leaky_slope must lie in [0, 1)",
                    (float("nan"), float("inf"), float("-inf"), -1)),
    "label_emb_dim": ("label_emb_dim must be positive", (0, -1, -2)),
    "top_k_deprels": ("GraphOptions: top_k_deprels must be non-negative", (-1, -2)),
    "max_tokens": ("EncoderConfig: max_tokens must be positive and at most 100, "
                   "the corpus sentence cap", (0, -1, 101, 150)),
    "seed": ("TrainConfig: seed must be non-negative", (-1, -2)),
    "min_freq": ("RunConfig: min_freq must be at least 1", (0, -3)),
}
# Model names to leave out of training that leave no valid set of models,
# with the message that refuses each.
DISABLED_MODELS = [
    (["x"], "disable_model has unknown model names ['x']; the models are ['p', 't', 'v']"),
    (["p", "t", "v"], "disable_model: at least one model must stay enabled"),
]
# Where ``bundle.json`` holds each field of MEANINGLESS that it records.
IN_BUNDLE = {"leaky_slope": "encoder.leaky_slope", "label_emb_dim": "label_emb_dim",
             "top_k_deprels": "graph_options.top_k_deprels", "max_tokens": "encoder.max_tokens"}

_PART = re.compile(r'\.?(\w+)|\[(\d+)\]|\["([^"]*)"\]')


def _parts(field):
    """The keys and list indices (from 0) that ``field`` names, in order."""
    parts = []
    for name, index, key in _PART.findall(field):
        parts.append(int(index) - 1 if index else name or key)
    return parts


def _edited(record, field, value=None, delete=False):
    """A copy of ``record`` with ``field`` set to ``value``, or deleted, and
    the value it held."""
    record = json.loads(json.dumps(record))
    *parents, last = _parts(field)
    parent = record
    for key in parents:
        parent = parent[key]
    old = parent[last]
    if delete:
        del parent[last]
    else:
        parent[last] = value
    return record, old


def _fits(value, old):
    """Whether ``value`` has the JSON type of ``old``, a value simrec wrote."""
    return type(value) is type(old) or (type(old) is float and type(value) is int)


def _cases(record, field_names, deletable):
    """Each (edited record, expected message): every mutant that does not
    fit a field, every deletion of a required field, in a fixed order."""
    cases = []
    for field in field_names:
        for value in MUTANTS:
            edited, old = _edited(record, field, value)
            if not _fits(value, old):
                cases.append((edited, f"{field} must be {WHAT[type(old)]}, "
                                      f"got {json.dumps(value)}"))
        if deletable and field not in OPTIONAL and not field.endswith(("]", '"')):
            cases.append((_edited(record, field, delete=True)[0], f"{field} is missing"))
    return cases


def _run(argv, capsys):
    rc = main(argv)
    return rc, capsys.readouterr().err


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    sents = generate_synthetic(SyntheticConfig(n_sentences=12, seed=3))
    train, dev = root / "train.jsonl", root / "dev.jsonl"
    save_corpus(train, sents[:8])
    save_corpus(dev, sents[8:])
    return str(train), str(dev)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpora):
    train, dev = corpora
    out = tmp_path_factory.mktemp("model")
    assert main(["train", "--train", train, "--dev", dev, "--out-dir", str(out),
                 "--d-model", "8", "--n-selfattn-layers", "1", "--n-gat-layers", "1",
                 "--edge-emb-dim", "4", "--label-emb-dim", "6", "--epochs", "1",
                 "--batch-size", "4", "--seed", "0"]) == 0
    return out


def _corpus_cases():
    good = sentence_to_record(canonical_sentence())
    cases = _cases(good, CORPUS_FIELDS, deletable=True)
    for key in (" 2", "02", "+2", "2.0", "two"):  # int() once read all but the last
        edited = {**good, "glosses": {key: good["glosses"]["2"]}}
        cases.append((edited, f"glosses key must be a decimal integer, got {json.dumps(key)}"))
    edited = json.loads(json.dumps(good))
    edited["tokens"][1]["lemma"] = "sheep"
    cases.append((edited, "tokens[2] has unknown keys ['lemma']"))
    return [(json.dumps(edited), message) for edited, message in cases]


def test_every_corpus_fault_is_one_line_naming_file_line_and_field(
    corpora, trained_dir, tmp_path, capsys
):
    train, dev = corpora
    good = json.dumps(sentence_to_record(canonical_sentence()))
    bad, out_file, out_dir = tmp_path / "bad.jsonl", tmp_path / "p.jsonl", tmp_path / "m"
    failures = []
    for line, message in _corpus_cases():
        bad.write_text(f"{good}\n{line}\n", encoding="utf-8")
        want = f"error: {bad}: line 2: {message}\n"
        for argv, made in (
            (["predict", "--model-dir", str(trained_dir), "--input", str(bad),
              "--out", str(out_file)], out_file),
            (["train", "--train", str(bad), "--dev", dev, "--out-dir", str(out_dir)], out_dir),
        ):
            rc, err = _run(argv, capsys)
            if (rc, err) != (1, want) or made.exists():
                failures.append((argv[0], line, err))
    assert not failures, failures[:5]


def test_every_config_fault_is_one_line_before_training(corpora, tmp_path, capsys):
    train, dev = corpora
    base = {**asdict(RunConfig()), "disable_model": ["v"]}
    config, out_dir = tmp_path / "run.json", tmp_path / "m"
    failures = []
    for edited, message in _cases(base, CONFIG_FIELDS, deletable=False):
        config.write_text(json.dumps(edited), encoding="utf-8")
        rc, err = _run(["train", "--train", train, "--dev", dev, "--out-dir", str(out_dir),
                        "--config", str(config)], capsys)
        if (rc, err) != (1, f"error: {config}: {message}\n") or out_dir.exists():
            failures.append((message, err))
    assert not failures, failures[:5]


@pytest.mark.parametrize("field_names, extra", [
    (BUNDLE_FIELDS, [
        # dict() once read lists of pairs
        ("layouts", [["p", []]], 'layouts must be an object, got [["p", []]]'),
    ]),
    (VOCAB_FIELDS, [
        # list() once split this string into seven one-letter relations
        ("vocab.deprel_ranking", "abcdefg", 'vocab.deprel_ranking must be a list, got "abcdefg"'),
        ("vocab.token_to_id", [["<pad>", 0]],
         'vocab.token_to_id must be an object, got [["<pad>", 0]]'),
    ]),
    (SELECTED_FIELDS, []),
], ids=["settings", "vocab", "selection"])
def test_every_model_dir_fault_is_one_line_before_any_output(
    corpora, trained_dir, tmp_path, capsys, field_names, extra
):
    _, dev = corpora
    model_dir = tmp_path / "model"
    shutil.copytree(trained_dir, model_dir)
    path = model_dir / "bundle.json"
    text = path.read_text(encoding="utf-8")
    record = json.loads(text)
    field_names = [field.replace("SEL", record["selected"]) for field in field_names]
    cases = _cases(record, field_names, deletable=True)
    cases += [(_edited(record, field, value)[0], message) for field, value, message in extra]
    out_file = tmp_path / "p.jsonl"
    failures = []
    for edited, message in cases:
        path.write_text(json.dumps(edited), encoding="utf-8")
        rc, err = _run(["predict", "--model-dir", str(model_dir), "--input", dev,
                        "--out", str(out_file)], capsys)
        if (rc, err) != (1, f"error: {path}: {message}\n") or out_file.exists():
            failures.append((message, err))
    path.write_text(text, encoding="utf-8")
    assert _run(["predict", "--model-dir", str(model_dir), "--input", dev,
                 "--out", str(out_file)], capsys)[0] == 0
    assert not failures, failures[:5]


def test_every_meaningless_number_is_one_line_before_any_output(
    corpora, trained_dir, tmp_path, capsys
):
    # Python's json reads and writes NaN, Infinity and -Infinity.
    train, dev = corpora
    config, out_dir, out_file = tmp_path / "run.json", tmp_path / "m", tmp_path / "p.jsonl"
    model_dir = tmp_path / "model"
    shutil.copytree(trained_dir, model_dir)
    meta = model_dir / "bundle.json"
    text = meta.read_text(encoding="utf-8")
    failures = []
    cases = [(field, value, f"{message}, got {value!r}")
             for field, (message, values) in MEANINGLESS.items() for value in values]
    cases += [("disable_model", value, message) for value, message in DISABLED_MODELS]
    for field, value, want in cases:
        config.write_text(json.dumps({field: value}), encoding="utf-8")
        rc, err = _run(["train", "--train", train, "--dev", dev, "--out-dir", str(out_dir),
                        "--config", str(config)], capsys)
        if (rc, err) != (1, f"error: {config}: {want}\n") or out_dir.exists():
            failures.append((field, value, "run.json", err))
        if field in IN_BUNDLE:
            meta.write_text(json.dumps(_edited(json.loads(text), IN_BUNDLE[field], value)[0]),
                            encoding="utf-8")
            rc, err = _run(["predict", "--model-dir", str(model_dir), "--input", dev,
                            "--out", str(out_file)], capsys)
            if (rc, err) != (1, f"error: {meta}: {want}\n") or out_file.exists():
                failures.append((field, value, "bundle.json", err))
    meta.write_text(text, encoding="utf-8")
    assert _run(["predict", "--model-dir", str(model_dir), "--input", dev,
                 "--out", str(out_file)], capsys)[0] == 0
    assert not failures, failures[:5]
