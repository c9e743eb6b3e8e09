"""Antecedent decoding and link consolidation."""

import numpy as np
import pytest

from evcoref.corpus import Document, FeatureSchema, Mention
from evcoref.inference import (
    DUMMY,
    clusters_from_links,
    decode_antecedents,
    load_clusterings,
    predict_corpus,
    predict_document,
    save_clusterings,
)
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import PairScores


def brute_force_partition(scores):
    """Independent oracle: recompute links, then close them with DFS."""
    k = scores.k
    links = []
    for i in range(1, k):
        best, arg = 0.0, DUMMY
        for j in range(i):
            s = scores.score(i, j)
            if s > best:
                best, arg = s, j
        if arg is not DUMMY:
            links.append((i, arg))
    adj = {i: set() for i in range(k)}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    seen, clusters = set(), []
    for i in range(k):
        if i in seen:
            continue
        stack, comp = [i], []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adj[v])
        clusters.append(sorted(comp))
    return sorted(clusters, key=lambda c: c[0])


class TestDecode:
    def test_all_negative_all_dummy(self):
        scores = PairScores(4, -np.abs(np.random.default_rng(0).normal(size=6)) - 0.1)
        assert decode_antecedents(scores) == [DUMMY] * 4

    def test_worked_example(self):
        # s(1,0)=2.0, s(2,0)=-1, s(2,1)=0.5
        scores = PairScores(3, np.array([2.0, -1.0, 0.5]))
        assert decode_antecedents(scores) == [DUMMY, 0, 1]

    def test_exact_tie_picks_earliest(self):
        scores = PairScores(3, np.array([-1.0, 1.0, 1.0]))
        assert decode_antecedents(scores)[2] == 0

    def test_tie_with_dummy_stays_dummy(self):
        scores = PairScores(2, np.array([0.0]))
        assert decode_antecedents(scores) == [DUMMY, DUMMY]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            decode_antecedents(PairScores(2, np.array([np.nan])))


class TestClusters:
    def test_all_dummy_singletons(self):
        assert clusters_from_links([DUMMY] * 4 ) == [[0], [1], [2], [3]]

    def test_chain_transitivity(self):
        assert clusters_from_links([DUMMY, 0, 1]) == [[0, 1, 2]]

    def test_two_chains(self):
        assert clusters_from_links([DUMMY, 0, DUMMY, 2]) == [[0, 1], [2, 3]]

    def test_forward_link_rejected(self):
        with pytest.raises(ValueError):
            clusters_from_links([DUMMY, 2])

    def test_fuzz_valid_partition(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            scores = PairScores(k, rng.normal(size=k * (k - 1) // 2))
            clusters = clusters_from_links(decode_antecedents(scores))
            flat = sorted(m for c in clusters for m in c)
            assert flat == list(range(k))

    def test_monotonic_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            scores = PairScores(k, rng.normal(size=k * (k - 1) // 2))
            assignment = decode_antecedents(scores)
            clusters = clusters_from_links(assignment)
            where = {m: ci for ci, c in enumerate(clusters) for m in c}
            for i, a in enumerate(assignment):
                if a is not DUMMY:
                    assert where[i] == where[a]

    def test_matches_brute_force_small_k(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = int(rng.integers(1, 49))
            scores = PairScores(k, rng.normal(size=k * (k - 1) // 2))
            got = clusters_from_links(decode_antecedents(scores))
            assert got == brute_force_partition(scores)


class TestPredict:
    SCHEMA = FeatureSchema((("Type", 3),))

    def doc(self, k=3):
        mentions = [Mention(2 * i, 2 * i, (1 + i % 3,), i % 2) for i in range(k)]
        return Document("d", [f"t{i}" for i in range(2 * k + 1)], mentions)

    def test_zeroed_model_gives_singletons(self):
        model = CorefModel(self.SCHEMA, ["<unk>", "t0"], "cdgm", Dims(d=4, l=2, p=3, w=1), seed=0)
        for p in model.parameters():
            p.value[...] = 0.0
        assert predict_document(model, self.doc()) == [[0], [1], [2]]

    def test_drop_singletons_flag(self):
        model = CorefModel(self.SCHEMA, ["<unk>", "t0"], "cdgm", Dims(d=4, l=2, p=3, w=1), seed=0)
        for p in model.parameters():
            p.value[...] = 0.0
        assert predict_document(model, self.doc(), drop_singletons=True) == []

    def test_single_mention_document(self):
        model = CorefModel(self.SCHEMA, ["<unk>", "t0"], "cdgm", Dims(d=4, l=2, p=3, w=1), seed=1)
        assert predict_document(model, self.doc(k=1)) == [[0]]

    def test_predictions_deterministic(self):
        model = CorefModel(self.SCHEMA, ["<unk>", "t0", "t2"], "cdgm", Dims(d=4, l=2, p=3, w=1), seed=2)
        docs = [self.doc(k) for k in (2, 4, 5)]
        assert predict_corpus(model, docs) == predict_corpus(model, docs)


class TestClusteringIO:
    def test_round_trip(self, tmp_path):
        data = {"a": [[0, 1], [2]], "b": [[0]]}
        path = tmp_path / "resp.jsonl"
        save_clusterings(data, path)
        assert load_clusterings(path) == data

    def test_line_format(self, tmp_path):
        path = tmp_path / "resp.jsonl"
        save_clusterings({"d1": [[0, 1], [2], [3, 4]]}, path)
        line = path.read_text().strip()
        assert line == '{"doc_id": "d1", "clusters": [[0, 1], [2], [3, 4]]}'

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "x"}\n')
        with pytest.raises(ValueError, match="clusters"):
            load_clusterings(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"doc_id": "a", "clusters": [[0]]}\n\n{"doc_id": "a", "clusters": [[1]]}\n')
        with pytest.raises(ValueError, match=r"dup\.jsonl: line 3: duplicate doc_id 'a' \(first on line 1\)"):
            load_clusterings(path)

    @pytest.mark.parametrize("doc_id", ["5", "5.0", "true", "null", '["5"]'])
    def test_non_string_doc_id_rejected(self, tmp_path, doc_id):
        """A coerced ``5`` would make a later ``"5"`` look like its duplicate."""
        path = tmp_path / "ids.jsonl"
        path.write_text(f'{{"doc_id": {doc_id}, "clusters": [[0]]}}\n'
                        '{"doc_id": "5", "clusters": [[0]]}\n')
        with pytest.raises(ValueError, match="ids\\.jsonl: line 1: doc_id .* is not a string"):
            load_clusterings(path)

    @pytest.mark.parametrize("mention", ["1.7", "1.0", "true", '"3"', "null"])
    def test_non_integer_mention_rejected(self, tmp_path, mention):
        path = tmp_path / "ids.jsonl"
        path.write_text('{"doc_id": "a", "clusters": [[0]]}\n'
                        f'{{"doc_id": "b", "clusters": [[0, {mention}]]}}\n')
        with pytest.raises(ValueError, match="ids\\.jsonl: line 2: mention id .* is not an integer"):
            load_clusterings(path)

    @pytest.mark.parametrize("clusters", ["[5]", "5", "[[0], 1]", '"01"'])
    def test_non_list_cluster_rejected(self, tmp_path, clusters):
        path = tmp_path / "shape.jsonl"
        path.write_text(f'{{"doc_id": "a", "clusters": {clusters}}}\n')
        with pytest.raises(ValueError, match="shape\\.jsonl: line 1: clusters must be a list of lists"):
            load_clusterings(path)
