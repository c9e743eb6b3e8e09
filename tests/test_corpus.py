"""Data model validation, JSONL round trips, and generator statistics."""

import json

import pytest

from evcoref.corpus import (
    CorpusError,
    Document,
    FeatureSchema,
    GenConfig,
    Mention,
    corrupt_features,
    generate_corpus,
    gold_clustering,
    load_corpus,
    save_corpus,
    validate_document,
)

SCHEMA = FeatureSchema.default()


def make_doc(mentions, n_tokens=10):
    return Document("d", [f"w{i}" for i in range(n_tokens)], mentions)


def mention(start, end, gold=0):
    return Mention(start, end, (1, 1, 1, 1, 1), gold)


class TestValidation:
    def test_reversed_span(self):
        doc = make_doc([Mention(5, 3, (1, 1, 1, 1, 1), 0)])
        assert validate_document(doc, SCHEMA) == "span reversed at mention 0"

    def test_ordering_violation(self):
        doc = make_doc([mention(4, 4), mention(2, 2)])
        assert "ordering violated" in validate_document(doc, SCHEMA)

    def test_empty_mentions_ok(self):
        assert validate_document(make_doc([]), SCHEMA) is None

    def test_out_of_bounds(self):
        doc = make_doc([mention(8, 12)])
        assert "out of bounds" in validate_document(doc, SCHEMA)

    def test_feature_value_out_of_range(self):
        doc = make_doc([Mention(1, 1, (9, 1, 1, 1, 1), 0)])
        assert "out of range" in validate_document(doc, SCHEMA)

    def test_feature_count_mismatch(self):
        doc = make_doc([Mention(1, 1, (1, 1), 0)])
        assert "count mismatch" in validate_document(doc, SCHEMA)


class TestJsonl:
    ONE_DOC = (
        '{"doc_id": "d1", "tokens": ["the","troops","leave","as","they","head","out"], '
        '"mentions": [{"start": 2, "end": 2, "features": {"Type": 3, "Polarity": 1, '
        '"Modality": 2, "Genericity": 1, "Tense": 2}, "gold_cluster": 0}, '
        '{"start": 5, "end": 6, "features": {"Type": 3, "Polarity": 1, "Modality": 1, '
        '"Genericity": 1, "Tense": 2}, "gold_cluster": 0}]}\n'
    )

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path, SCHEMA) == []

    def test_single_document_example(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(self.ONE_DOC)
        docs = load_corpus(path, SCHEMA)
        assert len(docs) == 1
        assert len(docs[0].tokens) == 7
        assert len(docs[0].mentions) == 2
        assert docs[0].mentions[1].features == (3, 1, 1, 1, 2)

    def test_round_trip_of_generated_corpus(self, tmp_path):
        docs = generate_corpus(GenConfig(n_docs=50, seed=9), SCHEMA, "train")
        path = tmp_path / "c.jsonl"
        save_corpus(docs, SCHEMA, path)
        assert load_corpus(path, SCHEMA) == docs

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(self.ONE_DOC + "{not json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, SCHEMA)

    def test_unknown_feature_name_rejected(self, tmp_path):
        obj = json.loads(self.ONE_DOC)
        obj["mentions"][0]["features"]["Realis"] = 1
        path = tmp_path / "unk.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="Realis"):
            load_corpus(path, SCHEMA)

    def test_missing_feature_name_rejected(self, tmp_path):
        obj = json.loads(self.ONE_DOC)
        del obj["mentions"][0]["features"]["Tense"]
        path = tmp_path / "miss.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="Tense"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None])
    def test_non_integer_feature_value_rejected(self, tmp_path, value):
        obj = json.loads(self.ONE_DOC)
        obj["mentions"][1]["features"]["Tense"] = value
        path = tmp_path / "float.jsonl"
        path.write_text(self.ONE_DOC + json.dumps(dict(obj, doc_id="d2")) + "\n")
        with pytest.raises(CorpusError, match="line 2: feature 'Tense' value .* is not an integer"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("tokens", ["abcdefg", ["a", "b", 3, "d", "e", "f", "g"], None])
    def test_non_string_tokens_rejected(self, tmp_path, tokens):
        obj = dict(json.loads(self.ONE_DOC), doc_id="d2", tokens=tokens)
        path = tmp_path / "tokens.jsonl"
        path.write_text(self.ONE_DOC + json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="line 2: tokens must be a list of strings"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("mentions", [[5], "ab", 5])
    def test_non_object_mentions_rejected(self, tmp_path, mentions):
        obj = dict(json.loads(self.ONE_DOC), doc_id="d2", mentions=mentions)
        path = tmp_path / "mentions.jsonl"
        path.write_text(self.ONE_DOC + json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="line 2: mentions must be a list of objects"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("field", ["start", "end", "gold_cluster"])
    @pytest.mark.parametrize("value", ["2", 2.0, 1.9, True])
    def test_non_integer_span_or_cluster_rejected(self, tmp_path, field, value):
        obj = json.loads(self.ONE_DOC)
        obj["mentions"][1][field] = value
        path = tmp_path / "span.jsonl"
        path.write_text(self.ONE_DOC + json.dumps(dict(obj, doc_id="d2")) + "\n")
        with pytest.raises(CorpusError, match=f"line 2: {field} value .* is not an integer"):
            load_corpus(path, SCHEMA)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(self.ONE_DOC * 2)
        with pytest.raises(CorpusError, match="line 2: duplicate doc_id 'd1' \\(first on line 1\\)"):
            load_corpus(path, SCHEMA)

    def test_gold_cluster_optional(self, tmp_path):
        obj = json.loads(self.ONE_DOC)
        for m in obj["mentions"]:
            del m["gold_cluster"]
        path = tmp_path / "nog.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        docs = load_corpus(path, SCHEMA)
        assert docs[0].mentions[0].gold_cluster is None


class TestGenerator:
    def test_determinism(self):
        cfg = GenConfig(n_docs=20, seed=5)
        a = generate_corpus(cfg, SCHEMA, "train")
        b = generate_corpus(cfg, SCHEMA, "train")
        assert a == b

    def test_splits_differ(self):
        cfg = GenConfig(n_docs=5, seed=5)
        assert generate_corpus(cfg, SCHEMA, "train") != generate_corpus(cfg, SCHEMA, "test")

    def test_generated_docs_validate(self):
        for doc in generate_corpus(GenConfig(n_docs=30, seed=2), SCHEMA, "dev"):
            assert validate_document(doc, SCHEMA) is None

    def test_zero_ambiguity_triggers_unique(self):
        docs = generate_corpus(GenConfig(n_docs=40, seed=3, ambiguity=0.0), SCHEMA, "train")
        for doc in docs:
            sequences = {}
            for m in doc.mentions:
                seq = tuple(doc.tokens[m.start : m.end + 1])
                sequences.setdefault(m.gold_cluster, set()).add(seq)
            all_seqs = [s for group in sequences.values() for s in group]
            assert len(set(all_seqs)) == len(sequences)

    def test_ambiguity_rate_binomial(self):
        """Fraction of docs holding a shared-trigger event pair tracks the rate."""
        n, rate = 1000, 0.5
        docs = generate_corpus(GenConfig(n_docs=n, seed=4, ambiguity=rate), SCHEMA, "train")
        shared = 0
        for doc in docs:
            by_event = {}
            for m in doc.mentions:
                by_event[m.gold_cluster] = tuple(doc.tokens[m.start : m.end + 1])
            shared += len(set(by_event.values())) < len(by_event)
        sigma = (rate * (1 - rate) / n) ** 0.5
        assert abs(shared / n - rate) <= 3 * sigma

    def test_infeasible_ranges_rejected(self):
        with pytest.raises(CorpusError, match="infeasible"):
            GenConfig(mentions=(2, 4), clusters=(3, 5)).validate()

    def test_gold_clustering_partitions(self):
        docs = generate_corpus(GenConfig(n_docs=10, seed=6), SCHEMA, "train")
        for doc in docs:
            clusters = gold_clustering(doc)
            flat = sorted(m for c in clusters for m in c)
            assert flat == list(range(len(doc.mentions)))


class TestCorruption:
    def test_perfect_accuracy_is_identity(self):
        docs = generate_corpus(GenConfig(n_docs=10, seed=1), SCHEMA, "train")
        observed, truth = corrupt_features(docs, SCHEMA, [1.0] * SCHEMA.k, seed=0)
        assert observed == docs
        assert truth[0][0] == docs[0].mentions[0].features

    def test_binary_zero_accuracy_forces_flip(self):
        schema = FeatureSchema((("Flag", 2),))
        docs = [Document("d", ["a", "b"], [Mention(0, 0, (1,), 0), Mention(1, 1, (2,), 0)])]
        observed, _ = corrupt_features(docs, schema, [0.0], seed=0)
        assert [m.features for m in observed[0].mentions] == [(2,), (1,)]

    def test_observed_accuracy_tracks_target(self):
        """Agreement fraction lands within 3 sigma of the Tense test-split rate."""
        a = 0.763
        schema = FeatureSchema((("Tense", 4),))
        k = 100_000
        doc = Document("d", ["x"] * 300001,
                       [Mention(3 * i, 3 * i, (1 + i % 4,), 0) for i in range(k)])
        observed, _ = corrupt_features([doc], schema, [a], seed=8)
        agree = sum(o.features == t.features for o, t in zip(observed[0].mentions, doc.mentions))
        sigma = (a * (1 - a) / k) ** 0.5
        assert abs(agree / k - a) <= 3 * sigma

    def test_values_stay_in_range(self):
        docs = generate_corpus(GenConfig(n_docs=20, seed=7), SCHEMA, "train")
        observed, _ = corrupt_features(docs, SCHEMA, [0.3] * SCHEMA.k, seed=1)
        cards = SCHEMA.cardinalities
        for doc in observed:
            for m in doc.mentions:
                assert all(1 <= v <= cards[u] for u, v in enumerate(m.features))

    def test_determinism(self):
        docs = generate_corpus(GenConfig(n_docs=10, seed=1), SCHEMA, "train")
        a, _ = corrupt_features(docs, SCHEMA, [0.5] * SCHEMA.k, seed=3)
        b, _ = corrupt_features(docs, SCHEMA, [0.5] * SCHEMA.k, seed=3)
        assert a == b
