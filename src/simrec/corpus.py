"""Annotated-sentence ingestion, vocabularies and synthetic corpora.

The on-disk corpus format is JSON Lines, one sentence per line: an object
of the fields in ``_RECORD_FIELDS`` (the README's "Corpus format" shows a
record). Token indices (comparator, gloss keys, dependency heads) are
1-based; head 0 marks the dependency root.  Gloss keys are decimal strings
because JSON objects cannot carry integer keys. ``read_record`` types this
and every other record that simrec reads; nothing is coerced.

In memory a token is a named tuple (``TokenAnn``): immutable, hashable,
equal by value (also to a plain 4-tuple) and cheap to build by the
thousand.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import tensorcore as tc

MAX_TOKENS = 100

LABEL_SIMILE = "simile"
LABEL_LITERAL = "literal"
TAG_VALUES = ("T", "V", "O")
_TAG_SET = frozenset(TAG_VALUES)

# POS tags treated as nouns when typing graph nodes and validating glosses.
# Pronouns are deliberately absent.
DEFAULT_NOUN_TAGS = frozenset({"NN", "NR", "NT", "n", "nh", "ns"})

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
CLS_TOKEN = "<cls>"
SEP_TOKEN = "<sep>"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)


class CorpusError(ValueError):
    """Raised for a malformed record or a violated sentence invariant."""


# What an error calls the JSON value of each annotation's outer type, and its
# exact Python types: a JSON true (Python counts a bool as an int) is no number.
# An ``int`` key of a JSON object is a decimal integer, written as ``str`` writes it.
_JSON_KINDS = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "bool": ("true or false", (bool,)),
    "str": ("a string", (str,)),
    "list": ("a list", (list,)),
    "tuple": ("a list", (list,)),
    "dict": ("an object", (dict,)),
}
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def check_json(value, kind: str, where: str, path: str):
    """Raise a CorpusError naming ``where`` (the file, and a corpus line) and the
    field ``path`` unless ``value`` is JSON of the kind annotated ``kind``. The
    items of a ``list[T]``, ``tuple[T, ...]`` (from 1) or ``dict[str|int, T]`` are Ts."""
    outer, _, inner = kind.partition("[")
    what, types = _JSON_KINDS[outer]
    if type(value) not in types:
        raise CorpusError(f"{where}: {path} must be {what}, got {json.dumps(value)}")
    if not inner:
        return
    keys, item = inner[:-1].split(", ", 1) if outer == "dict" else ("", inner[:-1])
    item = item.removesuffix(", ...")
    # Plain items are typed as one set; only a fault walks them, to name it.
    if ("[" not in item
            and {*map(type, value.values() if keys else value)} <= {*_JSON_KINDS[item][1]}
            and (keys != "int" or all(map(_DECIMAL.fullmatch, value)))):
        return
    for k, x in value.items() if keys else enumerate(value, start=1):
        if keys == "int" and not _DECIMAL.fullmatch(k):
            raise CorpusError(f"{where}: {path} key must be a decimal integer, "
                              f"got {json.dumps(k)}")
        check_json(x, item, where, f"{path}[{json.dumps(k)}]")


def read_json(path):
    """The JSON value in the file at ``path``; a CorpusError names a bad file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise CorpusError(f"{path}: invalid JSON ({exc})") from exc


def read_record(record, kinds: Mapping[str, str], where: str, path: str = "",
                optional: Collection[str] = ()) -> dict:
    """``record`` once it is a JSON object of fields of ``kinds`` (a dataclass's
    ``__annotations__``, say), each of its kind, none missing but ``optional``."""
    check_json(record, "dict", where, path or "record")
    unknown = sorted(record.keys() - kinds.keys())
    if unknown:
        raise CorpusError(f"{where}: {path or 'record'} has unknown keys {unknown}")
    for name, kind in kinds.items():
        field_path = f"{path}.{name}" if path else name
        if name in record:
            check_json(record[name], kind, where, field_path)
        elif name not in optional:
            raise CorpusError(f"{where}: {field_path} is missing")
    return record


class TokenAnn(NamedTuple):
    """One token with its POS tag and dependency arc (head 0 = root)."""

    surface: str
    pos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class AnnotatedSentence:
    """A fully annotated sentence with exactly one comparator token.

    ``glosses`` maps 1-based noun indices to pre-tokenized definitions;
    the sense analysis producing them happens upstream of this package.
    """

    tokens: tuple[TokenAnn, ...]
    comparator_index: int
    glosses: dict[int, tuple[str, ...]] = field(default_factory=dict)
    label: str = LABEL_LITERAL
    tags: tuple[str, ...] = ()

    @property
    def is_simile(self) -> bool:
        return self.label == LABEL_SIMILE


def validate_sentence(
    sent: AnnotatedSentence, where: str = "sentence", max_tokens: int = MAX_TOKENS
) -> None:
    """Check every AnnotatedSentence invariant; raise CorpusError naming the
    field.  A sentence may hold at most ``max_tokens`` tokens, and never
    more than ``MAX_TOKENS``."""
    n = len(sent.tokens)
    limit = min(max_tokens, MAX_TOKENS)
    if n < 1 or n > limit:
        raise CorpusError(f"{where}: token count {n} outside [1, {limit}]")
    if not (1 <= sent.comparator_index <= n):
        raise CorpusError(f"{where}: comparator_index out of range ({sent.comparator_index} for N={n})")
    if sent.label not in (LABEL_SIMILE, LABEL_LITERAL):
        raise CorpusError(f"{where}: label must be 'simile' or 'literal', got {sent.label!r}")
    if len(sent.tags) != n:
        raise CorpusError(f"{where}: tags length {len(sent.tags)} != token count {n}")
    # Each check runs once over the sentence; only a failure walks it again
    # to name the first culprit.
    tag_set = set(sent.tags)
    if not tag_set <= _TAG_SET:
        i, tag = next((i, t) for i, t in enumerate(sent.tags, start=1) if t not in TAG_VALUES)
        raise CorpusError(f"{where}: tags[{i}] = {tag!r} not in {TAG_VALUES}")
    if sent.label == LABEL_LITERAL and tag_set != {"O"}:
        raise CorpusError(f"{where}: literal sentence carries non-O tags")
    for i, (_, _, head, _) in enumerate(sent.tokens, start=1):
        if not 0 <= head <= n or head == i:
            if head != i:
                raise CorpusError(f"{where}: head of token {i} out of range ({head})")
            raise CorpusError(f"{where}: token {i} depends on itself")
    for idx in sent.glosses:
        if not (1 <= idx <= n):
            raise CorpusError(f"{where}: gloss key {idx} out of range")
        if sent.tokens[idx - 1].pos not in DEFAULT_NOUN_TAGS:
            raise CorpusError(f"{where}: gloss key {idx} points at non-noun POS {sent.tokens[idx - 1].pos!r}")


def sentence_to_record(sent: AnnotatedSentence) -> dict:
    return {
        "tokens": [
            {"surface": t.surface, "pos": t.pos, "head": t.head, "deprel": t.deprel}
            for t in sent.tokens
        ],
        "comparator_index": sent.comparator_index,
        "glosses": {str(k): list(v) for k, v in sorted(sent.glosses.items())},
        "label": sent.label,
        "tags": list(sent.tags),
    }


# The JSON kind of each field of a corpus record (``glosses`` is optional) and of a token.
_RECORD_FIELDS = {"tokens": "list", "comparator_index": "int",
                  "glosses": "dict[int, list[str]]", "label": "str", "tags": "list[str]"}
_TOKEN_FIELDS = {"surface": "str", "pos": "str", "head": "int", "deprel": "str"}
_TOKEN_VALUES = itemgetter(*TokenAnn._fields)  # four values, so TokenAnn._make's check is moot


def sentence_from_record(
    record: dict, where: str = "record", max_tokens: int = MAX_TOKENS
) -> AnnotatedSentence:
    """The sentence a corpus record holds, typed in one pass; only a fault walks
    the record again, with ``read_record``, to name the first field at fault."""
    try:
        toks, tags, glosses = record["tokens"], record["tags"], record.get("glosses", {})
        tokens = tuple(map(tuple.__new__, repeat(TokenAnn), map(_TOKEN_VALUES, toks)))
        surfaces, pos, heads, rels = zip(*tokens) if tokens else ((),) * 4
        sent = AnnotatedSentence(tokens, record["comparator_index"],
                                 {int(k): tuple(v) for k, v in glosses.items()},
                                 record["label"], tuple(tags))
        "".join(chain(surfaces, pos, rels, tags, *sent.glosses.values()))  # str items only
        # A record or token with no more keys than were read above has no other key.
        typed = ((type(toks), type(tags), type(sent.label)) == (list, list, str)
                 and len(record) == 4 + ("glosses" in record)
                 and sum(map(len, toks)) == 4 * len(toks)
                 and {*map(type, heads), type(sent.comparator_index)} == {int}
                 and {*map(type, glosses.values())} <= {list}
                 and all(map(_DECIMAL.fullmatch, glosses)))
    except (AttributeError, KeyError, TypeError, ValueError):
        typed = False
    if not typed:
        read_record(record, _RECORD_FIELDS, where, optional=("glosses",))
        for i, token in enumerate(record["tokens"], start=1):
            read_record(token, _TOKEN_FIELDS, where, f"tokens[{i}]")
        raise CorpusError(f"{where}: malformed record")  # the walk names every fault first
    validate_sentence(sent, where, max_tokens)
    return sent


def load_corpus(path, max_tokens: int = MAX_TOKENS) -> list[AnnotatedSentence]:
    """Read a JSON Lines corpus, validating every record; a model's
    ``max_tokens`` caps the sentence length.

    Errors name the file and the 1-based line number of the offending record.
    """
    sentences = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise CorpusError(f"{path}: line {lineno}: invalid JSON ({err})") from err
                sentences.append(
                    sentence_from_record(record, f"{path}: line {lineno}", max_tokens))
        except UnicodeDecodeError as err:
            raise CorpusError(f"{path}: not UTF-8 text ({err})") from err
    return sentences


def save_corpus(path, sentences: Iterable[AnnotatedSentence]) -> None:
    with tc.open_atomic(path) as fh:
        for sent in sentences:
            fh.write(json.dumps(sentence_to_record(sent), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


@dataclass
class Vocabulary:
    """Token lookup table plus the frequency-ranked dependency relations.

    Ids 0..3 are reserved (pad, unk, cls-surrogate, sep-surrogate).  The
    relation ranking is frequency-descending with lexicographic tie-break,
    so the top-k cut is stable across runs and platforms.
    """

    token_to_id: dict[str, int]
    deprel_ranking: list[str]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def token_id(self, surface: str) -> int:
        return self.token_to_id.get(surface, self.token_to_id[UNK_TOKEN])

    def top_deprels(self, k: int) -> list[str]:
        return self.deprel_ranking[:k]


def build_vocab(corpus: Sequence[AnnotatedSentence], min_freq: int = 1) -> Vocabulary:
    """Build the vocabulary from training sentences (gloss tokens included)."""
    if not corpus:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    token_freq: dict[str, int] = {}
    deprel_freq: dict[str, int] = {}
    for sent in corpus:
        for tok in sent.tokens:
            token_freq[tok.surface] = token_freq.get(tok.surface, 0) + 1
            deprel_freq[tok.deprel] = deprel_freq.get(tok.deprel, 0) + 1
        for gloss in sent.glosses.values():
            for word in gloss:
                token_freq[word] = token_freq.get(word, 0) + 1

    token_to_id = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    for surface in sorted(token_freq):
        if token_freq[surface] >= min_freq:
            token_to_id[surface] = len(token_to_id)

    ranking = sorted(deprel_freq, key=lambda r: (-deprel_freq[r], r))
    return Vocabulary(token_to_id=token_to_id, deprel_ranking=ranking)


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    n_sentences: int
    seed: int = 0
    noise_rate: float = 0.0


# Disjoint semantic categories.  A simile pairs nouns from two different
# categories around the comparator; a literal sentence compares nouns of the
# same category.  Every noun has a fixed pre-tokenized gloss: one adjective
# unique to the noun followed by a two-word category phrase shared by every
# noun of that category, so glosses carry the category signal a learner needs.
# No gloss word reappears in another category or in the sentence word pools.
CATEGORY_NOUNS: dict[str, dict[str, tuple[str, ...]]] = {
    "animal": {
        "sheep": ("woolly", "farm", "animal"),
        "kitten": ("young", "farm", "animal"),
        "puppy": ("playful", "farm", "animal"),
        "pony": ("sturdy", "farm", "animal"),
        "rabbit": ("furry", "farm", "animal"),
        "goat": ("horned", "farm", "animal"),
    },
    "sky": {
        "clouds": ("drifting", "airy", "sky"),
        "stars": ("glittering", "airy", "sky"),
        "moon": ("glowing", "airy", "sky"),
        "snowflakes": ("frozen", "airy", "sky"),
        "mist": ("floating", "airy", "sky"),
        "rainbow": ("arched", "airy", "sky"),
    },
    "water": {
        "river": ("flowing", "wet", "water"),
        "waves": ("restless", "wet", "water"),
        "lake": ("calm", "wet", "water"),
        "stream": ("rushing", "wet", "water"),
        "ocean": ("salty", "wet", "water"),
        "puddle": ("muddy", "wet", "water"),
    },
    "fire": {
        "flames": ("leaping", "hot", "fire"),
        "embers": ("fading", "hot", "fire"),
        "sparks": ("flying", "hot", "fire"),
        "torches": ("burning", "hot", "fire"),
        "candles": ("flickering", "hot", "fire"),
        "lanterns": ("lit", "hot", "fire"),
    },
    "plant": {
        "willow": ("bending", "green", "plant"),
        "moss": ("cushioned", "green", "plant"),
        "ferns": ("curled", "green", "plant"),
        "petals": ("scented", "green", "plant"),
        "reeds": ("swaying", "green", "plant"),
        "clover": ("lucky", "green", "plant"),
    },
    "stone": {
        "pebbles": ("smooth", "hard", "stone"),
        "marble": ("polished", "hard", "stone"),
        "granite": ("gray", "hard", "stone"),
        "boulders": ("heavy", "hard", "stone"),
        "gravel": ("loose", "hard", "stone"),
        "flint": ("sharp", "hard", "stone"),
    },
}

_VERBS = ("looks", "drifts", "glows", "moves", "shines", "sways")
_ADJECTIVES = ("white", "soft", "bright", "quiet", "pale", "wild")
_ADVERBS = ("slowly", "gently", "softly", "today")
_COMPARATORS = ("like", "as")


@dataclass(frozen=True)
class _Template:
    # Seven slot kinds: THE, NOUN_A, NOUN_B, VERB, ADJ, ADV, CMP.
    slots: tuple[str, ...]
    pos: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...]
    comparator_index: int

    @cached_property
    def noun_a(self) -> int:
        return self.slots.index("NOUN_A") + 1

    @cached_property
    def noun_b(self) -> int:
        return self.slots.index("NOUN_B") + 1


# Relations are drawn from a fixed small set; trees have depth <= 4 and a
# single root.  The first template reproduces the canonical six-token
# "the sheep look like white clouds" shape.
_TEMPLATES = (
    _Template(
        slots=("THE", "NOUN_A", "VERB", "CMP", "ADJ", "NOUN_B"),
        pos=("DT", "NN", "VV", "CS", "JJ", "NN"),
        heads=(2, 3, 0, 3, 6, 4),
        deprels=("other", "nsubj", "root", "prep", "amod", "pobj"),
        comparator_index=4,
    ),
    _Template(
        slots=("NOUN_A", "VERB", "CMP", "NOUN_B"),
        pos=("NN", "VV", "CS", "NN"),
        heads=(2, 0, 2, 3),
        deprels=("nsubj", "root", "prep", "pobj"),
        comparator_index=3,
    ),
    _Template(
        slots=("NOUN_A", "VERB", "CMP", "ADJ", "NOUN_B"),
        pos=("NN", "VV", "CS", "JJ", "NN"),
        heads=(2, 0, 2, 5, 3),
        deprels=("nsubj", "root", "prep", "amod", "pobj"),
        comparator_index=3,
    ),
    _Template(
        slots=("THE", "NOUN_A", "VERB", "ADV", "CMP", "THE", "NOUN_B"),
        pos=("DT", "NN", "VV", "AD", "CS", "DT", "NN"),
        heads=(2, 3, 0, 3, 3, 7, 5),
        deprels=("other", "nsubj", "root", "advmod", "prep", "other", "pobj"),
        comparator_index=5,
    ),
    _Template(
        slots=("THE", "ADJ", "NOUN_A", "VERB", "CMP", "ADJ", "NOUN_B", "ADV"),
        pos=("DT", "JJ", "NN", "VV", "CS", "JJ", "NN", "AD"),
        heads=(3, 3, 4, 0, 4, 7, 5, 4),
        deprels=("other", "amod", "nsubj", "root", "prep", "amod", "pobj", "advmod"),
        comparator_index=5,
    ),
)


def canonical_sentence(tenor: str = "sheep", vehicle: str = "clouds") -> AnnotatedSentence:
    """The six-token "the sheep looks like white clouds" simile.

    Two noun tokens (indices 2 and 6), comparator at index 4, five non-root
    dependency arcs.  Used by graph oracles and documentation.
    """
    tpl = _TEMPLATES[0]
    return _fill_template(
        tpl,
        noun_a=tenor,
        noun_b=vehicle,
        verb="looks",
        adj="white",
        adv="slowly",
        the="the",
        cmp_word="like",
        simile=True,
        glosses={
            tpl.noun_a: CATEGORY_NOUNS["animal"].get(tenor, ("some", "near", "thing")),
            tpl.noun_b: CATEGORY_NOUNS["sky"].get(vehicle, ("some", "far", "thing")),
        },
    )


def _fill_template(
    tpl: _Template,
    *,
    noun_a: str,
    noun_b: str,
    verb: str,
    adj: str,
    adv: str,
    the: str,
    cmp_word: str,
    simile: bool,
    glosses: dict[int, tuple[str, ...]],
) -> AnnotatedSentence:
    words = {
        "THE": the,
        "NOUN_A": noun_a,
        "NOUN_B": noun_b,
        "VERB": verb,
        "ADJ": adj,
        "ADV": adv,
        "CMP": cmp_word,
    }
    tokens = tuple([
        TokenAnn(words[slot], pos, head, rel)
        for slot, pos, head, rel in zip(tpl.slots, tpl.pos, tpl.heads, tpl.deprels)
    ])
    return AnnotatedSentence(
        tokens=tokens,
        comparator_index=tpl.comparator_index,
        glosses=dict(glosses),
        label=LABEL_SIMILE if simile else LABEL_LITERAL,
        tags=_template_tags(tpl, simile),
    )


def _template_tags(tpl: _Template, simile: bool) -> tuple[str, ...]:
    """T on noun A and V on noun B of a simile; all O for a literal."""
    tags = ["O"] * len(tpl.slots)
    if simile:
        tags[tpl.noun_a - 1], tags[tpl.noun_b - 1] = "T", "V"
    return tuple(tags)


def generate_synthetic(config: SyntheticConfig) -> list[AnnotatedSentence]:
    """Deterministic synthetic corpus: ~50% similes, ~50% literal comparisons.

    With probability ``noise_rate`` a sentence's gold label is flipped (tags
    adjusted to keep invariants), simulating annotation noise.
    """
    if config.n_sentences < 2:
        raise CorpusError("n_sentences must be >= 2")
    if not 0.0 <= config.noise_rate <= 1.0:
        raise CorpusError(f"noise_rate must lie in [0, 1], got {config.noise_rate}")
    if config.seed < 0:
        raise CorpusError(f"seed must be non-negative, got {config.seed}")
    rng = np.random.default_rng(config.seed)
    categories = sorted(CATEGORY_NOUNS)
    sentences = []
    for _ in range(config.n_sentences):
        tpl = _TEMPLATES[rng.integers(len(_TEMPLATES))]
        simile = bool(rng.random() < 0.5)
        cat_a = categories[rng.integers(len(categories))]
        if simile:
            others = [c for c in categories if c != cat_a]
            cat_b = others[rng.integers(len(others))]
        else:
            cat_b = cat_a
        nouns_a = sorted(CATEGORY_NOUNS[cat_a])
        nouns_b = sorted(CATEGORY_NOUNS[cat_b])
        noun_a = nouns_a[rng.integers(len(nouns_a))]
        noun_b = nouns_b[rng.integers(len(nouns_b))]
        if noun_b == noun_a:
            noun_b = nouns_b[(nouns_b.index(noun_b) + 1) % len(nouns_b)]
        sent = _fill_template(
            tpl,
            noun_a=noun_a,
            noun_b=noun_b,
            verb=_VERBS[rng.integers(len(_VERBS))],
            adj=_ADJECTIVES[rng.integers(len(_ADJECTIVES))],
            adv=_ADVERBS[rng.integers(len(_ADVERBS))],
            the="the",
            cmp_word=_COMPARATORS[rng.integers(len(_COMPARATORS))],
            simile=simile,
            glosses={
                tpl.noun_a: CATEGORY_NOUNS[cat_a][noun_a],
                tpl.noun_b: CATEGORY_NOUNS[cat_b][noun_b],
            },
        )
        if config.noise_rate > 0 and rng.random() < config.noise_rate:
            sent = _flip_label(sent, tpl)
        validate_sentence(sent, "synthetic sentence")
        sentences.append(sent)
    return sentences


def _flip_label(sent: AnnotatedSentence, tpl: _Template) -> AnnotatedSentence:
    simile = not sent.is_simile
    return replace(sent, label=LABEL_SIMILE if simile else LABEL_LITERAL,
                   tags=_template_tags(tpl, simile))


def split_folds(
    corpus: Sequence[AnnotatedSentence], k: int, seed: int = 0
) -> list[list[AnnotatedSentence]]:
    """Shuffle and split into k disjoint test folds, each in corpus order; the
    first ``len(corpus) % k`` folds hold one sentence more."""
    if k < 2:
        raise CorpusError("k must be >= 2")
    if k > len(corpus):
        raise CorpusError(f"k={k} exceeds corpus size {len(corpus)}")
    if seed < 0:
        raise CorpusError(f"seed must be non-negative, got {seed}")
    order = np.random.default_rng(seed).permutation(len(corpus))
    return [[corpus[j] for j in sorted(fold.tolist())] for fold in np.array_split(order, k)]
