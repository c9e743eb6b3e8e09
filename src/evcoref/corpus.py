"""Document data model, JSONL corpus files, and a synthetic generator.

Documents carry tokens plus ordered event mentions; each mention has a
trigger span, K categorical feature values (1-based, one per schema
entry) and optionally a gold cluster id.  The generator plants latent
event clusters whose triggers may deliberately collide between distinct
events, so the categorical features become the only disambiguator, and
``corrupt_features`` then simulates imperfect feature predictors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

# Default feature inventory, modeled on ACE-style event attributes, with
# typical predictor accuracies on clean training text vs. held-out text.
DEFAULT_SCHEMA_SPEC = {"Type": 8, "Polarity": 2, "Modality": 2, "Genericity": 2, "Tense": 4}
DEFAULT_TRAIN_ACCURACY = {"Type": 0.999, "Polarity": 0.999, "Modality": 0.999, "Genericity": 0.999, "Tense": 0.984}
DEFAULT_TEST_ACCURACY = {"Type": 0.953, "Polarity": 0.988, "Modality": 0.884, "Genericity": 0.872, "Tense": 0.763}

_SPLIT_CODES = {"train": 0, "dev": 1, "test": 2}


class CorpusError(ValueError):
    """Malformed corpus file or invalid document content."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered list of (name, cardinality) categorical features."""

    features: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.features]
        if len(set(names)) != len(names):
            raise CorpusError("feature names must be unique")
        for name, card in self.features:
            if card < 2:
                raise CorpusError(f"feature {name!r} needs cardinality >= 2, got {card}")

    @property
    def k(self):
        return len(self.features)

    @property
    def names(self):
        return [n for n, _ in self.features]

    @property
    def cardinalities(self):
        return [c for _, c in self.features]

    def to_dict(self):
        return dict(self.features)

    @classmethod
    def from_dict(cls, d):
        return cls(tuple((str(k), int(v)) for k, v in d.items()))

    @classmethod
    def default(cls):
        return cls.from_dict(DEFAULT_SCHEMA_SPEC)


@dataclass(frozen=True)
class Mention:
    """Trigger span [start, end] (inclusive token indices) plus features."""

    start: int
    end: int
    features: tuple[int, ...]
    gold_cluster: int | None = None


@dataclass
class Document:
    doc_id: str
    tokens: list[str]
    mentions: list[Mention] = field(default_factory=list)


def validate_document(doc, schema):
    """Return None if all invariants hold, else the first diagnostic."""
    n = len(doc.tokens)
    cards = schema.cardinalities
    prev = None
    for m, mention in enumerate(doc.mentions):
        if mention.start > mention.end:
            return f"span reversed at mention {m}"
        if mention.start < 0 or mention.end >= n:
            return f"span out of bounds at mention {m}"
        if len(mention.features) != schema.k:
            return f"feature count mismatch at mention {m}"
        for u, value in enumerate(mention.features):
            if not 1 <= value <= cards[u]:
                return f"feature value out of range at mention {m}"
        if prev is not None:
            if mention.start < prev.start or (mention.start == prev.start and mention.end < prev.end):
                return f"ordering violated at mention {m}"
        prev = mention
    return None


def ensure_valid(docs, schema):
    for doc in docs:
        diag = validate_document(doc, schema)
        if diag is not None:
            raise CorpusError(f"document {doc.doc_id!r}: {diag}")


def _mention_from_json(obj, schema, where):
    feats = obj.get("features")
    if not isinstance(feats, dict):
        raise CorpusError(f"{where}: mention without a feature object")
    for name in feats:
        if name not in schema.names:
            raise CorpusError(f"{where}: unknown feature name {name!r}")
    values = []
    for name in schema.names:
        if name not in feats:
            raise CorpusError(f"{where}: missing feature name {name!r}")
        value = feats[name]
        if type(value) is not int:
            raise CorpusError(f"{where}: feature {name!r} value {value!r} is not an integer")
        values.append(value)
    fields = {"start": obj["start"], "end": obj["end"]}
    if obj.get("gold_cluster") is not None:
        fields["gold_cluster"] = obj["gold_cluster"]
    for name, value in fields.items():
        if type(value) is not int:
            raise CorpusError(f"{where}: {name} value {value!r} is not an integer")
    return Mention(features=tuple(values), **fields)


def load_corpus(path, schema):
    """Read a JSONL corpus (one document object per line) and validate it."""
    docs = []
    first_line = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {ln}: malformed JSON ({exc.msg})") from None
            try:
                tokens, mention_objs = obj["tokens"], obj.get("mentions", [])
                if not isinstance(tokens, list) or not all(type(t) is str for t in tokens):
                    raise CorpusError(f"line {ln}: tokens must be a list of strings")
                if not isinstance(mention_objs, list) or not all(isinstance(mo, dict) for mo in mention_objs):
                    raise CorpusError(f"line {ln}: mentions must be a list of objects")
                mentions = [_mention_from_json(mo, schema, f"line {ln}") for mo in mention_objs]
                doc = Document(doc_id=str(obj["doc_id"]), tokens=tokens, mentions=mentions)
            except KeyError as exc:
                raise CorpusError(f"line {ln}: missing field {exc.args[0]!r}") from None
            if doc.doc_id in first_line:
                raise CorpusError(
                    f"line {ln}: duplicate doc_id {doc.doc_id!r} (first on line {first_line[doc.doc_id]})"
                )
            first_line[doc.doc_id] = ln
            diag = validate_document(doc, schema)
            if diag is not None:
                raise CorpusError(f"line {ln}: {diag}")
            docs.append(doc)
    return docs


def document_to_json(doc, schema):
    mentions = []
    for m in doc.mentions:
        obj = {
            "start": m.start,
            "end": m.end,
            "features": {name: v for name, v in zip(schema.names, m.features)},
        }
        if m.gold_cluster is not None:
            obj["gold_cluster"] = m.gold_cluster
        mentions.append(obj)
    return {"doc_id": doc.doc_id, "tokens": doc.tokens, "mentions": mentions}


def save_corpus(docs, schema, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(document_to_json(doc, schema)) + "\n")


def load_schema(path):
    with open(path, "r", encoding="utf-8") as fh:
        return FeatureSchema.from_dict(json.load(fh))


def save_schema(schema, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2)
        fh.write("\n")


def gold_clustering(doc):
    """Gold clusters as lists of mention indices, ordered by first mention."""
    by_id = {}
    for i, m in enumerate(doc.mentions):
        if m.gold_cluster is None:
            raise CorpusError(f"document {doc.doc_id!r}: mention {i} has no gold cluster")
        by_id.setdefault(m.gold_cluster, []).append(i)
    return sorted(by_id.values(), key=lambda c: c[0])


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic corpus generator.

    ``ambiguity`` is the probability that a document with at least two
    latent events contains two non-coreferent events sharing one trigger
    token sequence.  ``train_accuracy`` / ``test_accuracy`` give the
    per-feature probability that an observed value equals the true one.
    """

    n_docs: int = 100
    tokens: tuple[int, int] = (30, 60)
    mentions: tuple[int, int] = (4, 8)
    clusters: tuple[int, int] = (2, 4)
    vocab_size: int = 120
    ambiguity: float = 0.5
    train_accuracy: dict = field(default_factory=lambda: dict(DEFAULT_TRAIN_ACCURACY))
    test_accuracy: dict = field(default_factory=lambda: dict(DEFAULT_TEST_ACCURACY))
    seed: int = 0

    def validate(self):
        if self.n_docs < 0:
            raise CorpusError("n_docs must be >= 0")
        for name, (lo, hi) in (("tokens", self.tokens), ("mentions", self.mentions), ("clusters", self.clusters)):
            if lo > hi or lo < 1:
                raise CorpusError(f"empty or invalid {name} range ({lo}, {hi})")
        if self.clusters[1] > self.mentions[0]:
            raise CorpusError(
                f"infeasible ranges: up to {self.clusters[1]} clusters but as few as "
                f"{self.mentions[0]} mentions"
            )
        if self.tokens[0] < 3 * self.mentions[1]:
            raise CorpusError("tokens range too small to place all mentions with filler gaps")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise CorpusError("ambiguity must be a probability")
        if self.vocab_size < 4 * self.clusters[1]:
            raise CorpusError("vocab_size too small for distinct triggers plus fillers")
        for table in (self.train_accuracy, self.test_accuracy):
            for name, a in table.items():
                if not 0.0 <= a <= 1.0:
                    raise CorpusError(f"accuracy for {name!r} must be in [0, 1]")

    def accuracies_for(self, split, schema):
        table = self.train_accuracy if split == "train" else self.test_accuracy
        missing = [n for n in schema.names if n not in table]
        if missing:
            raise CorpusError(f"no accuracy configured for feature(s) {missing}")
        return [float(table[n]) for n in schema.names]


def _rand_range(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))


def _generate_document(cfg, schema, split, index):
    rng = np.random.default_rng((cfg.seed, _SPLIT_CODES[split], index))
    n_tokens = _rand_range(rng, *cfg.tokens)
    k = _rand_range(rng, *cfg.mentions)
    c = _rand_range(rng, *cfg.clusters)

    # Every cluster gets at least one mention; the rest land uniformly.
    assignment = list(range(c)) + [int(rng.integers(c)) for _ in range(k - c)]
    assignment = [assignment[i] for i in rng.permutation(k)]

    shared_pair = None
    if c >= 2 and rng.random() < cfg.ambiguity:
        a, b = rng.choice(c, size=2, replace=False)
        shared_pair = (int(a), int(b))

    # Trigger sequences: head tokens are document-unique except for the
    # deliberately shared pair, which reuses one sequence verbatim.
    span_lens = [1 if rng.random() < 0.7 else 2 for _ in range(c)]
    n_words = sum(span_lens)
    word_ids = rng.choice(cfg.vocab_size, size=n_words, replace=False)
    trigger_words = iter(f"w{int(w):04d}" for w in word_ids)
    sequences = [None] * c
    for ev in range(c):
        if shared_pair is not None and ev == shared_pair[1]:
            continue
        sequences[ev] = tuple(next(trigger_words) for _ in range(span_lens[ev]))
    if shared_pair is not None:
        sequences[shared_pair[1]] = sequences[shared_pair[0]]

    cards = schema.cardinalities
    event_features = [tuple(_rand_range(rng, 1, cards[u]) for u in range(schema.k)) for ev in range(c)]
    if shared_pair is not None:
        a, b = shared_pair
        if event_features[a] == event_features[b]:
            # Same trigger and same features would be unresolvable; flip one.
            u = int(rng.integers(schema.k))
            old = event_features[b][u]
            new = 1 + (old - 1 + 1 + int(rng.integers(cards[u] - 1))) % cards[u]
            feats = list(event_features[b])
            feats[u] = new
            event_features[b] = tuple(feats)

    # Lay mentions out left to right with random filler gaps.
    span_total = sum(len(sequences[ev]) for ev in assignment)
    gaps = rng.multinomial(n_tokens - span_total, np.full(k + 1, 1.0 / (k + 1)))
    trigger_vocab = {w for seq in sequences for w in seq}
    filler_pool = [f"w{i:04d}" for i in range(cfg.vocab_size) if f"w{i:04d}" not in trigger_vocab]

    tokens = []
    mentions = []
    for m in range(k):
        tokens.extend(filler_pool[int(j)] for j in rng.integers(len(filler_pool), size=gaps[m]))
        seq = sequences[assignment[m]]
        start = len(tokens)
        tokens.extend(seq)
        mentions.append(
            Mention(start=start, end=start + len(seq) - 1,
                    features=event_features[assignment[m]], gold_cluster=assignment[m])
        )
    tokens.extend(filler_pool[int(j)] for j in rng.integers(len(filler_pool), size=gaps[k]))

    return Document(doc_id=f"{split}{index:05d}", tokens=tokens, mentions=mentions)


def generate_corpus(cfg, schema, split):
    """Deterministically generate documents with TRUE feature values.

    ``split`` selects an independent seed stream ("train", "dev" or
    "test"); observation noise is applied separately by
    ``corrupt_features``.
    """
    cfg.validate()
    if split not in _SPLIT_CODES:
        raise CorpusError(f"unknown split {split!r}")
    docs = [_generate_document(cfg, schema, split, i) for i in range(cfg.n_docs)]
    ensure_valid(docs, schema)
    return docs


def corrupt_features(docs, schema, accuracies, seed):
    """Replace true feature values by noisy observed ones.

    Per mention and feature u the true value is kept with probability
    a_u, otherwise replaced by a uniform draw over the other N_u - 1
    values.  Returns (new documents, true values) where the second item
    is one tuple-list per document for later analysis.
    """
    accuracies = list(accuracies)
    if len(accuracies) != schema.k:
        raise CorpusError(f"need {schema.k} accuracies, got {len(accuracies)}")
    rng = np.random.default_rng(seed)
    cards = schema.cardinalities
    out_docs = []
    true_values = []
    for doc in docs:
        new_mentions = []
        truth = []
        for m in doc.mentions:
            truth.append(m.features)
            values = list(m.features)
            for u in range(schema.k):
                if rng.random() >= accuracies[u]:
                    offset = 1 + int(rng.integers(cards[u] - 1))
                    values[u] = 1 + (values[u] - 1 + offset) % cards[u]
            new_mentions.append(replace(m, features=tuple(values)))
        out_docs.append(Document(doc_id=doc.doc_id, tokens=list(doc.tokens), mentions=new_mentions))
        true_values.append(truth)
    return out_docs, true_values
