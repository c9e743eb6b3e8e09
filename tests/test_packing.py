"""Packed training records: one forward, loss node and backward for several documents."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcoref import pair_model, training
from evcoref.autodiff import Tape
from evcoref.corpus import Document, FeatureSchema, GenConfig, Mention, generate_corpus
from evcoref.encoder import build_vocab
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import MODES, score_batch_node, score_document_node
from evcoref.training import (
    NoiseConfig,
    TrainConfig,
    batch_loss_node,
    document_loss_node,
    full_model_grad_check,
    gradcheck_instance,
    pair_groups,
    train,
    warm_to_loss,
)

SCHEMA = FeatureSchema.default()
DIMS = Dims(d=8, l=4, p=6, w=1)
VOCAB = ["<unk>"] + [f"w{i}" for i in range(10)]


def random_doc(rng, k, name):
    """k mentions on one- or two-token spans, random features and gold clusters.

    Spans may touch the first and last token, where an encoder window that
    crossed into a neighbouring document would show.
    """
    tokens = [VOCAB[int(i)] for i in rng.integers(0, len(VOCAB), size=2 * k + 1)]
    starts = 2 * np.arange(k) + rng.integers(0, 2, size=k)
    mentions = [
        Mention(start=int(s), end=int(s + rng.integers(2)),
                features=tuple(1 + int(rng.integers(c)) for c in SCHEMA.cardinalities),
                gold_cluster=int(rng.integers(3)))
        for s in starts
    ]
    return Document(doc_id=name, tokens=tokens, mentions=mentions)


def grads_of(model):
    return {p.name: p.grad.copy() for p in model.parameters()}


def packed_and_single(docs, model):
    """(per-document losses, gradients) from one packed record, and from one record per document."""
    model.zero_grads()
    tape = Tape()
    loss, losses = batch_loss_node(docs, model, tape)
    if loss is not None:
        tape.backward(loss)
    tape.release()
    packed = grads_of(model)
    model.zero_grads()
    single = []
    for doc in docs:
        tape = Tape()
        node = document_loss_node(doc, model, tape)
        single.append(0.0 if node is None else float(node.value))
        if node is not None:
            tape.backward(node)
        tape.release()
    return (losses, packed), (np.array(single), grads_of(model))


def assert_close(got, want):
    """Within 1e-12 of the largest magnitude in ``want``: summation order only."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(initial=0.0))


def check_batch(ks, mode, seed):
    rng = np.random.default_rng(seed)
    docs = [random_doc(rng, k, f"d{n}") for n, k in enumerate(ks)]
    model = CorefModel(SCHEMA, VOCAB, mode, DIMS, seed=seed)
    (losses, packed), (single, per_doc) = packed_and_single(docs, model)
    assert losses.shape == (len(docs),)
    assert_close(losses, single)
    for name, grad in per_doc.items():
        assert_close(packed[name], grad)


class TestPackedAgainstPerDocument:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ks=st.lists(st.integers(1, 9), min_size=1, max_size=8), mode=st.sampled_from(MODES),
           seed=st.integers(0, 2**31))
    def test_loss_and_gradients_property(self, ks, mode, seed):
        check_batch(ks, mode, seed)

    # (1, 2, 3): every feature FFNN runs on the batch's pairs; (1, 2, 9, 9, 9): on its value table.
    @pytest.mark.parametrize("ks", [(1,), (2,), (1, 2, 3), (1, 2, 9, 9, 9), (8, 1, 1, 2, 7, 4, 2, 8)])
    @pytest.mark.parametrize("mode", MODES)
    def test_loss_and_gradients_fixed(self, ks, mode):
        check_batch(ks, mode, seed=5)

    @pytest.mark.parametrize("mode", MODES)
    def test_scores_are_each_documents_own(self, mode):
        rng = np.random.default_rng(3)
        docs = [random_doc(rng, k, f"d{n}") for n, k in enumerate((3, 1, 6, 2))]
        model = CorefModel(SCHEMA, VOCAB, mode, DIMS, seed=3)
        node, offsets = score_batch_node(docs, model, Tape(record=False))
        assert offsets == [0, 3, 3, 18, 19]
        for d, doc in enumerate(docs):
            own = score_document_node(doc, model, Tape(record=False))
            want = np.zeros(0) if own is None else own.value
            assert_close(node.value[offsets[d] : offsets[d + 1]], want)

    def test_no_pairs_records_nothing(self):
        rng = np.random.default_rng(4)
        docs = [random_doc(rng, k, f"d{n}") for n, k in enumerate((1, 0, 1))]
        model = CorefModel(SCHEMA, VOCAB, "cdgm", DIMS, seed=4)
        tape = Tape()
        loss, losses = batch_loss_node(docs, model, tape)
        assert loss is None and losses.tolist() == [0.0, 0.0, 0.0] and tape._record == []

    def test_record_length_independent_of_batch_size(self):
        rng = np.random.default_rng(6)
        docs = [random_doc(rng, k, f"d{n}") for n, k in enumerate((9, 9))]  # 72 pairs
        model = CorefModel(SCHEMA, VOCAB, "cdgm", DIMS, seed=6)
        lengths = []
        # At 72 and 144 pairs every feature runs on its value table and the scorer takes its input by blocks.
        for batch in (docs, docs + docs):
            tape = Tape()
            loss, losses = batch_loss_node(batch, model, tape)
            assert tape._record[-1] is loss
            assert float(loss.value) == pytest.approx(losses.sum(), rel=1e-15)
            lengths.append(len(tape._record))
        assert lengths[0] == lengths[1]


class TestPairGroups:
    def doc(self, k):
        return Document("d", ["x"] * k, [Mention(m, m, (1,), 0) for m in range(k)])

    def test_runs_in_order_within_budget(self):
        docs = [self.doc(k) for k in (4, 4, 5, 2, 3, 1)]  # 6, 6, 10, 1, 3, 0 pairs
        groups = pair_groups(docs, 12)
        assert [[len(d.mentions) for d in g] for g in groups] == [[4, 4], [5, 2], [3, 1]]

    def test_over_budget_document_alone(self):
        docs = [self.doc(k) for k in (3, 8, 3)]  # 3, 28, 3 pairs
        assert [len(g) for g in pair_groups(docs, 10)] == [1, 1, 1]

    def test_default_budget_packs_a_grid_batch(self):
        """Eight documents of the default 4-8 mentions hold at most 224 pairs: one record."""
        assert len(pair_groups([self.doc(8)] * 8, training.PAIR_BUDGET)) == 1
        # The long workloads' documents (32+ mentions) each train alone.
        assert len(pair_groups([self.doc(32)] * 2, training.PAIR_BUDGET)) == 2


class TestPackedTraining:
    def test_grad_check_through_packed_batch(self):
        """Criterion 01's check, thresholds unchanged, through one record of three documents."""
        sub = FeatureSchema(SCHEMA.features[:2])
        docs = [gradcheck_instance(sub, seed=s) for s in (7, 8, 9)]
        model = CorefModel(sub, build_vocab(docs), "cdgm", Dims(d=8, l=4, p=6, w=1), seed=7)
        warm_to_loss(model, docs)
        report = full_model_grad_check(model, docs, step=1e-5, tol=1e-4)
        assert report.ok, report

    def test_corrupt_hook_fails_through_packed_batch(self):
        sub = FeatureSchema(SCHEMA.features[:2])
        docs = [gradcheck_instance(sub, seed=s) for s in (7, 8, 9)]
        model = CorefModel(sub, build_vocab(docs), "cdgm", Dims(d=6, l=3, p=4, w=1), seed=7)
        warm_to_loss(model, docs)
        report = full_model_grad_check(model, docs, corrupt="embed.Type")
        assert not report.ok and report.errors["embed.Type"] > 0.1

    @pytest.mark.parametrize("budget, block", [(training.PAIR_BUDGET, None), (12, None), (training.PAIR_BUDGET, 2)],
                             ids=[str(training.PAIR_BUDGET), "12", "row-blocks"])
    def test_fixed_seed_artifacts_byte_identical(self, tmp_path, monkeypatch, budget, block):
        """Criterion 10 for the trainer: history and model bytes repeat, whole batches, split ones or row blocks."""
        monkeypatch.setattr(training, "PAIR_BUDGET", budget)
        cfg = GenConfig(n_docs=10, tokens=(18, 30), mentions=(3, 6), clusters=(2, 3), vocab_size=40, seed=2)
        docs = generate_corpus(cfg, SCHEMA, "train")
        if block is not None:
            # Below every document's pairs: each trains alone, in several blocks of antecedent rows.
            monkeypatch.setattr(pair_model, "BLOCK_PAIRS", block)
            assert all(len(list(pair_model.record_blocks([len(doc.mentions)]))) > 1 for doc in docs)
        out = []
        for run in ("a", "b"):
            model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", DIMS, seed=2)
            history = train(model, docs, TrainConfig(epochs=2, seed=2, batch_size=4, noise=True),
                            noise=NoiseConfig.for_schema(SCHEMA))
            model.save(tmp_path / f"{run}.json")
            out.append((json.dumps(history.to_dict()), (tmp_path / f"{run}.json").read_bytes()))
        assert out[0] == out[1]

    def test_epoch_loss_sums_documents_in_batch_order(self, monkeypatch):
        """The epoch loss adds each document's loss in order, whatever the records hold."""
        cfg = GenConfig(n_docs=6, tokens=(18, 30), mentions=(3, 5), clusters=(2, 3), vocab_size=40, seed=3)
        docs = generate_corpus(cfg, SCHEMA, "train")
        seen = []
        real = training.record_losses

        def spy(group, model):
            losses = real(group, model)
            seen.extend(float(v) for v in losses)
            return losses

        monkeypatch.setattr(training, "record_losses", spy)
        model = CorefModel(SCHEMA, build_vocab(docs), "simple", DIMS, seed=3)
        history = train(model, docs, TrainConfig(epochs=1, seed=3, batch_size=4))
        total = 0.0
        for value in seen:
            total += value
        assert history.epoch_loss == [total / len(docs)]
