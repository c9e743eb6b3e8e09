"""Metric suite against hand-derived values and brute-force oracles."""

import itertools

import numpy as np
import pytest

from evcoref.metrics import (
    MetricTriple,
    align_universes,
    b_cubed,
    blanc,
    ceaf_e,
    corpus_report,
    document_report,
    format_report,
    hungarian,
    muc,
    phi4,
    summarize,
)

KEY = [[1, 2, 3], [4, 5]]
RESPONSE = [[1, 2], [3, 4, 5]]


# ---- independent oracles -------------------------------------------------

def oracle_muc(key, response):
    def halves(gold, system):
        num = den = 0
        for c in gold:
            den += len(c) - 1
            partitions = set()
            for m in c:
                owner = next((i for i, s in enumerate(system) if m in s), ("solo", m))
                partitions.add(owner)
            num += len(c) - len(partitions)
        return num, den

    r_num, r_den = halves(key, response)
    p_num, p_den = halves(response, key)
    p = p_num / p_den if p_den else 0.0
    r = r_num / r_den if r_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_b_cubed(key, response):
    mentions = sorted({m for c in key for m in c})

    def cluster_of(m, clustering):
        for c in clustering:
            if m in c:
                return set(c)
        return {m}

    recall = np.mean([
        len(cluster_of(m, key) & cluster_of(m, response)) / len(cluster_of(m, key))
        for m in mentions
    ])
    precision = np.mean([
        len(cluster_of(m, key) & cluster_of(m, response)) / len(cluster_of(m, response))
        for m in mentions
    ])
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def oracle_ceaf_e(key, response):
    best = 0.0
    small, large = (key, response) if len(key) <= len(response) else (response, key)
    for perm in itertools.permutations(range(len(large)), len(small)):
        best = max(best, sum(phi4(small[i], large[j]) for i, j in enumerate(perm)))
    r = best / len(key) if key else 0.0
    p = best / len(response) if response else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_blanc(key, response):
    mentions = sorted({m for c in key for m in c})
    pairs = list(itertools.combinations(mentions, 2))

    def linked(pair, clustering):
        return any(pair[0] in c and pair[1] in c for c in clustering)

    ck = {p for p in pairs if linked(p, key)}
    cr = {p for p in pairs if linked(p, response)}
    nk = set(pairs) - ck
    nr = set(pairs) - cr

    def f1(a, b):
        p = len(a & b) / len(b) if b else 0.0
        r = len(a & b) / len(a) if a else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    if not ck and not cr:
        return f1(nk, nr)
    if not nk and not nr:
        return f1(ck, cr)
    return (f1(ck, cr) + f1(nk, nr)) / 2


def random_partition(rng, items):
    clusters = {}
    n_clusters = int(rng.integers(1, len(items) + 1))
    for m in items:
        clusters.setdefault(int(rng.integers(n_clusters)), []).append(m)
    return list(clusters.values())


# ---- worked example -------------------------------------------------------

class TestWorkedExample:
    def test_muc(self):
        got = muc(KEY, RESPONSE)
        assert (got.precision, got.recall, got.f1) == pytest.approx((2 / 3,) * 3, abs=1e-12)
        assert got.f1 == pytest.approx(oracle_muc(KEY, RESPONSE)[2], abs=1e-12)

    def test_b_cubed(self):
        got = b_cubed(KEY, RESPONSE)
        assert got.f1 == pytest.approx(11 / 15, abs=1e-12)
        assert got.f1 == pytest.approx(oracle_b_cubed(KEY, RESPONSE)[2], abs=1e-12)

    def test_ceaf_e(self):
        got = ceaf_e(KEY, RESPONSE)
        assert got.f1 == pytest.approx(0.8, abs=1e-12)
        assert got.f1 == pytest.approx(oracle_ceaf_e(KEY, RESPONSE)[2], abs=1e-12)

    def test_blanc(self):
        got = blanc(KEY, RESPONSE)
        assert got.f1 == pytest.approx(7 / 12, abs=1e-12)
        assert got.f1 == pytest.approx(oracle_blanc(KEY, RESPONSE), abs=1e-12)

    def test_summaries(self):
        report = document_report(KEY, RESPONSE)
        assert report.conll == pytest.approx((2 / 3 + 11 / 15 + 0.8) / 3, abs=1e-12)
        assert report.avg == pytest.approx((2 / 3 + 11 / 15 + 0.8 + 7 / 12) / 4, abs=1e-12)
        assert report.conll == pytest.approx(0.7333, abs=5e-5)
        assert report.avg == pytest.approx(0.6958, abs=5e-5)


class TestConventions:
    def test_identical_clusterings_perfect(self):
        for metric in (muc, b_cubed, ceaf_e, blanc):
            got = metric(KEY, KEY)
            assert (got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0)

    def test_muc_all_singletons_zero(self):
        singles = [[1], [2], [3]]
        got = muc(singles, singles)
        assert (got.precision, got.recall, got.f1) == (0.0, 0.0, 0.0)

    def test_blanc_all_singletons_one(self):
        singles = [[1], [2], [3]]
        assert blanc(singles, singles).f1 == 1.0

    def test_blanc_single_mention_zero(self):
        assert blanc([[1]], [[1]]).f1 == 0.0

    def test_blanc_only_coref_links(self):
        one = [[1, 2, 3]]
        assert blanc(one, one).f1 == 1.0

    def test_b_cubed_big_cluster_vs_singletons(self):
        key = [[0, 1, 2, 3]]
        response = [[0], [1], [2], [3]]
        got = b_cubed(key, response)
        assert got.recall == pytest.approx(0.25, abs=1e-12)
        assert got.precision == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_universes_become_singletons(self):
        key = [[1, 2], [3]]
        response = [[1, 2, 4]]
        k2, r2 = align_universes(key, response)
        assert sorted(map(sorted, k2)) == [[1, 2], [3], [4]]
        assert sorted(map(sorted, r2)) == [[1, 2, 4], [3]]

    def test_summarize_arithmetic(self):
        one = MetricTriple(1.0, 1.0, 1.0)
        zero = MetricTriple(0.0, 0.0, 0.0)
        assert summarize(one, one, one, one) == (1.0, 1.0)
        conll, avg = summarize(one, one, one, zero)
        assert conll == 1.0 and avg == 0.75


class TestHungarian:
    def test_two_by_two_diagonal(self):
        assert hungarian([[0.8, 0.33], [0.0, 0.8]]) == pytest.approx(1.6, abs=1e-12)

    def test_rectangular_padding(self):
        assert hungarian([[1.0, 0.4, 0.7]]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_permutation_brute_force(self):
        """200 random instances with <= 6 clusters per side, exact match."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            nk = int(rng.integers(1, 7))
            nr = int(rng.integers(1, 7))
            universe = list(range(12))
            rng.shuffle(universe)
            key = [sorted(universe[i::nk]) for i in range(nk)]
            response_universe = universe.copy()
            rng.shuffle(response_universe)
            response = [sorted(response_universe[i::nr]) for i in range(nr)]
            got = ceaf_e(key, response)
            want = oracle_ceaf_e(*align_universes(key, response))
            assert got.f1 == pytest.approx(want[2], abs=1e-12)


class TestProperties:
    def test_relabeling_and_reordering_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            items = list(range(int(rng.integers(2, 10))))
            key = random_partition(rng, items)
            response = random_partition(rng, items)
            shuffled_key = [list(rng.permutation(c)) for c in key]
            rng.shuffle(shuffled_key)
            for metric in (muc, b_cubed, ceaf_e, blanc):
                assert metric(key, response).f1 == pytest.approx(
                    metric(shuffled_key, response).f1, abs=1e-12
                )

    def test_perfect_response_fuzz(self):
        """Any partition scored against itself reaches F1 = 1 everywhere."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            items = list(range(int(rng.integers(2, 12))))
            key = random_partition(rng, items)
            report = document_report(key, [list(c) for c in key])
            assert report.b3.f1 == 1.0
            assert report.ceaf_e.f1 == 1.0
            assert report.blanc.f1 == 1.0
            if any(len(c) > 1 for c in key):  # MUC is 0/0 on all-singleton keys
                assert report.muc.f1 == 1.0
                assert report.conll == 1.0

    def test_role_swap_duality(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            items = list(range(int(rng.integers(2, 10))))
            key = random_partition(rng, items)
            response = random_partition(rng, items)
            for metric in (muc, b_cubed, ceaf_e, blanc):
                a = metric(key, response)
                b = metric(response, key)
                assert a.precision == pytest.approx(b.recall, abs=1e-12)
                assert a.recall == pytest.approx(b.precision, abs=1e-12)
                assert a.f1 == pytest.approx(b.f1, abs=1e-12)

    def test_oracle_agreement_fuzz(self):
        """Contiguous, non-contiguous and string mention ids, up to 30 mentions."""
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(2, 31))
            items = list(range(n))
            if trial % 3 == 1:
                items = sorted(int(m) for m in rng.choice(1000, size=n, replace=False))
            elif trial % 3 == 2:
                items = [f"m{m}" for m in rng.permutation(n)]
            key = random_partition(rng, items)
            response = random_partition(rng, items)
            for metric, oracle in ((muc, oracle_muc), (b_cubed, oracle_b_cubed)):
                got = metric(key, response)
                assert (got.precision, got.recall, got.f1) == pytest.approx(
                    oracle(key, response), abs=1e-12
                )
            assert blanc(key, response).f1 == pytest.approx(
                oracle_blanc(key, response), abs=1e-12
            )

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            items = list(range(int(rng.integers(1, 10))))
            report = document_report(random_partition(rng, items), random_partition(rng, items))
            for triple in (report.muc, report.b3, report.ceaf_e, report.blanc):
                assert 0.0 <= triple.f1 <= 1.0
            assert 0.0 <= report.conll <= 1.0
            assert 0.0 <= report.avg <= 1.0


class TestCorpusAggregation:
    def test_micro_average_pools_counts(self):
        keys = {"a": [[0, 1, 2]], "b": [[0], [1]]}
        responses = {"a": [[0, 1], [2]], "b": [[0, 1]]}
        report = corpus_report(keys, responses)
        # MUC pooled: recall (3-2)+(0)/ (2+0)... key b has no links
        assert report.muc.recall == pytest.approx(0.5, abs=1e-12)
        assert report.muc.precision == pytest.approx(0.5, abs=1e-12)

    def test_missing_doc_id_named(self):
        with pytest.raises(ValueError, match="d7"):
            corpus_report({"d7": [[0]]}, {})

    def test_extra_doc_id_named(self):
        with pytest.raises(ValueError, match="d9"):
            corpus_report({}, {"d9": [[0]]})

    def test_report_formatting(self):
        text = format_report(document_report(KEY, RESPONSE))
        assert "MUC" in text and "CoNLL" in text and "AVG" in text
        assert "0.7333" in text and "0.6958" in text
