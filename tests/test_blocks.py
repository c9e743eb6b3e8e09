"""Long documents scored and trained in blocks of antecedent rows."""

import gc
import os
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from evcoref import pair_model, training
from evcoref.autodiff import Tape, grad_check, row_block, row_pairs
from evcoref.corpus import Document, FeatureSchema, GenConfig, Mention, generate_corpus
from evcoref.encoder import build_vocab
from evcoref.inference import clusters_from_links, decode_antecedents
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import MODES, record_blocks, row_blocks, score_batch_node, score_document
from evcoref.training import (TrainConfig, antecedent_nll, batch_loss_node, document_loss_node, record_losses, train,
                              warm_to_loss)

from test_packing import DIMS, SCHEMA, VOCAB, assert_close, grads_of, random_doc

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")

# (mentions, bound): under, just over and far over the bound, and a case at the default bound.
CASES = [(6, 20), (7, 20), (30, 20), (46, None)]


def bound(monkeypatch, pairs):
    if pairs is not None:
        monkeypatch.setattr(pair_model, "BLOCK_PAIRS", pairs)


def model_for(mode, seed, singular=False):
    model = CorefModel(SCHEMA, VOCAB, mode, DIMS, seed=seed)
    if singular:
        # t_ij = 0 for every pair: each gate projects on the ||t||^2 < eps branch.
        for p in (model.pair.ffnn_t.w2, model.pair.ffnn_t.b2):
            p.value[...] = 0.0
    return model


def whole_document(doc, model):
    """Scores, loss and gradients of the one-tape path (``document_loss_node``)."""
    scores = score_batch_node([doc], model, Tape(record=False))[0].value
    model.zero_grads()
    tape = Tape()
    loss = document_loss_node(doc, model, tape)
    tape.backward(loss)
    tape.release()
    return scores, float(loss.value), grads_of(model)


def clusters(scores):
    return clusters_from_links(decode_antecedents(scores))


@pytest.mark.parametrize("k, pairs", CASES)
def test_row_blocks_tile_the_pairs_in_order(monkeypatch, k, pairs):
    bound(monkeypatch, pairs)
    blocks = row_blocks(k)
    assert blocks[0][0] == 1 and blocks[-1][1] == k
    assert all(b0[1] == b1[0] for b0, b1 in zip(blocks, blocks[1:]))
    for a, b in blocks:
        size = b * (b - 1) // 2 - a * (a - 1) // 2
        assert size <= pair_model.BLOCK_PAIRS or b == a + 1
    i = np.concatenate([row_block(k, a, b).i for a, b in blocks])
    j = np.concatenate([row_block(k, a, b).j for a, b in blocks])
    np.testing.assert_array_equal(i, row_pairs(k).i)
    np.testing.assert_array_equal(j, row_pairs(k).j)
    if k * (k - 1) // 2 <= pair_model.BLOCK_PAIRS:
        assert blocks == [(1, k)]
    assert row_blocks(1) == [] and row_blocks(0) == []


@pytest.mark.parametrize("mode, singular", [(m, False) for m in MODES] + [("cdgm", True)],
                         ids=[*MODES, "cdgm-singular"])
@pytest.mark.parametrize("k, pairs", CASES)
def test_blocks_match_the_whole_document(monkeypatch, k, pairs, mode, singular):
    bound(monkeypatch, pairs)
    doc = random_doc(np.random.default_rng(k), k, f"k{k}")
    model = model_for(mode, seed=k, singular=singular)
    scores, loss, grads = whole_document(doc, model)

    blocked = score_document(doc, model)
    assert_close(blocked.flat, scores)
    assert clusters(blocked) == clusters(pair_model.PairScores(k, scores))

    model.zero_grads()
    (blocked_loss,) = record_losses([doc], model)
    assert_close(np.array([blocked_loss]), np.array([loss]))
    for name, g in grads_of(model).items():
        assert_close(g, grads[name])


def test_a_record_over_the_bound_holds_one_document():
    assert len(list(record_blocks([40, 10]))) == 1  # 825 pairs
    with pytest.raises(ValueError, match="holds one document, got 2"):
        list(record_blocks([40, 30]))  # 1 215 pairs


@pytest.mark.parametrize("mode, singular", [(m, False) for m in MODES] + [("cdgm", True)],
                         ids=[*MODES, "cdgm-singular"])
def test_one_block_is_the_one_tape_reference_bit_for_bit(mode, singular):
    """Within the bound, training and scoring run one block, equal to the one-tape reference in every bit."""
    rng = np.random.default_rng(5)
    docs = [random_doc(rng, k, f"d{k}") for k in (5, 1, 9, 2, 13)]
    assert len(list(record_blocks([len(doc.mentions) for doc in docs]))) == 1
    model = model_for(mode, seed=5, singular=singular)
    model.zero_grads()
    tape = Tape()
    loss, want = batch_loss_node(docs, model, tape)
    tape.backward(loss)
    tape.release()
    grads = grads_of(model)
    model.zero_grads()
    assert np.array_equal(record_losses(docs, model), want)
    for name, g in grads_of(model).items():
        assert np.array_equal(g, grads[name]), name

    # 45 mentions: 990 pairs, the longest document one block holds at the default bound.
    for doc in docs + [random_doc(rng, 45, "d45")]:
        node = score_batch_node([doc], model, Tape(record=False))[0]
        assert np.array_equal(score_document(doc, model).flat, np.zeros(0) if node is None else node.value)


class BlockedRun:
    """``grad_check``'s (tape, loss) for a blocked step: its backward runs ``record_losses``."""

    def __init__(self, doc, model):
        self.doc, self.model = doc, model

    def release(self):
        pass

    def backward(self, loss):
        record_losses([self.doc], self.model)


def test_blocked_gradient_vs_finite_differences(monkeypatch):
    """Criterion 01's check, step and tolerance, on a step trained through three row blocks."""
    monkeypatch.setattr(pair_model, "BLOCK_PAIRS", 2)
    sub = FeatureSchema(SCHEMA.features[:2])
    rng = np.random.default_rng(7)
    mentions = [Mention(start=s, end=e, features=tuple(1 + int(rng.integers(c)) for c in sub.cardinalities),
                        gold_cluster=g)
                for (s, e), g in zip([(1, 1), (4, 5), (8, 8), (10, 11)], (0, 1, 0, 1))]
    doc = Document(doc_id="blocks", tokens=[f"t{i}" for i in range(12)], mentions=mentions)
    assert len(row_blocks(4)) == 3
    model = CorefModel(sub, build_vocab([doc]), "cdgm", Dims(d=8, l=4, p=6, w=1), seed=7)
    warm_to_loss(model, doc)

    golds = [m.gold_cluster for m in doc.mentions]

    def closure():
        # The loss of the blocked forward (score_document scores 6 pairs in 3 blocks).
        return BlockedRun(doc, model), SimpleNamespace(value=antecedent_nll(score_document(doc, model), golds))

    report = grad_check(closure, model.parameters(), step=1e-5, tol=1e-4)
    assert report.ok, report


def test_blocked_loss_checks_every_gold_id_first(monkeypatch):
    monkeypatch.setattr(pair_model, "BLOCK_PAIRS", 3)
    doc = random_doc(np.random.default_rng(0), 8, "late-none")
    doc.mentions[7] = replace(doc.mentions[7], gold_cluster=None)
    model = model_for("cdgm", seed=0)
    model.zero_grads()
    with pytest.raises(ValueError, match="mention 7 has no gold cluster"):
        record_losses([doc], model)
    # Raised before the first block: no gradient was added.
    assert all(not p.grad.any() for p in model.parameters())


@pytest.mark.parametrize("k", [1, 2])
def test_missing_gold_cluster_fails_at_any_length(k):
    mentions = [Mention(start=i, end=i, features=(1, 1, 1, 1, 1), gold_cluster=0) for i in range(k)]
    mentions[-1] = Mention(start=k - 1, end=k - 1, features=(1, 1, 1, 1, 1), gold_cluster=None)
    doc = Document(doc_id="none", tokens=VOCAB[1 : k + 1], mentions=mentions)
    model = model_for("simple", seed=0)
    with pytest.raises(ValueError, match=f"mention {k - 1} has no gold cluster"):
        train(model, [doc], TrainConfig(epochs=1))


def long_doc(k, seed):
    gen = GenConfig(n_docs=1, tokens=(480, 800), mentions=(k, k), clusters=(16, 16), seed=seed)
    doc = generate_corpus(gen, SCHEMA, "train")[0]
    return doc, CorefModel(SCHEMA, build_vocab([doc]), "cdgm", Dims(), seed=seed)


def traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_a_long_document_stays_within_its_memory_bound():
    """k = 160 peaked at 49 MB scored whole; in 1024-pair blocks at about 5 MB."""
    doc, model = long_doc(160, seed=11)
    assert traced_peak(score_document, doc, model) < 12e6


def test_a_blocked_training_step_stays_within_its_memory_bound():
    """k = 128 peaked at 121 MB trained whole; in 1024-pair blocks at about 21 MB."""
    doc, model = long_doc(128, seed=11)
    assert traced_peak(record_losses, [doc], model) < 40e6


def test_one_block_tape_lives_at_a_time(monkeypatch):
    """Without the collector, only the encoder tape is alive when a block's tape is made."""
    probes, alive_at_new = [], []

    class Tracked(Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive_at_new.append(sum(probe() is not None for probe in probes))
            probes.append(weakref.ref(self))

    monkeypatch.setattr(training, "Tape", Tracked)
    monkeypatch.setattr(training, "PAIR_BUDGET", 0)
    monkeypatch.setattr(pair_model, "BLOCK_PAIRS", 40)
    rng = np.random.default_rng(4)
    docs = [random_doc(rng, k, f"d{k}") for k in (12, 20, 3)]
    model = model_for("cdgm", seed=4)
    gc.disable()
    try:
        train(model, docs, TrainConfig(epochs=1, seed=4, batch_size=3))
        dead = all(probe() is None for probe in probes)
    finally:
        gc.enable()
    # One record per document at budget 0: an encoder tape each, plus its blocks (the 3-mention one has one).
    assert len(probes) == sum(1 + len(list(record_blocks([k]))) for k in (12, 20, 3))
    assert dead and max(alive_at_new) <= 1


@pytest.mark.parametrize("workload", ["long-predict", "long-train"])
def test_long_workloads_run_traced_through_blocks(monkeypatch, workload):
    """The benchmark's traced long workloads, at small sizes, with documents over the bound."""
    sys.path.insert(0, BENCHMARKS)
    import workloads

    sizes = workloads.Sizes(
        docs={"train": 6, "dev": 2, "test": 4}, epochs=1, setup_epochs=1, dims=Dims(d=8, l=4, p=8, w=1),
        long_tokens=(50, 60), long_clusters=(2, 4), predict_docs=3, predict_mentions=(6, 12),
        train_docs=2, train_mentions=(6, 12), train_epochs=1, heldout_docs=2)
    # Every long document over the block bound, and training one at a time.
    monkeypatch.setattr(pair_model, "BLOCK_PAIRS", 8)
    monkeypatch.setattr(training, "PAIR_BUDGET", 8)
    scored, trained = [], []
    row_blocks_, record_blocks_ = pair_model.row_blocks, training.record_blocks
    monkeypatch.setattr(pair_model, "row_blocks", lambda k: scored.append(k) or row_blocks_(k))

    def counted(ks):
        trained.append(len(list(record_blocks_(ks))))
        return record_blocks_(ks)

    monkeypatch.setattr(training, "record_blocks", counted)
    record = workloads.run_child(workload, 1, True, time.clock_gettime(time.CLOCK_MONOTONIC), sizes)
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] == workloads.planned_docs(workload, sizes)
    assert scored and (workload == "long-predict" or max(trained) > 1)
