"""Antecedent-ranking loss, feature noise injection, and the train loop.

Each mention ranks a dummy antecedent (score pinned at 0) against all
preceding mentions; the loss is the negative log marginal probability of
the gold antecedent set.  Noise injection re-samples feature values
uniformly with per-feature probability right before a batch is scored,
so the gates meet corrupted features during training even when the
training corpus itself is nearly clean.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import pair_model
from .autodiff import Parameter, Tape, logsumexp_rows, precomputed, row_block
from .corpus import Document, gold_clustering
from .inference import predict_corpus
from .metrics import corpus_report
# score_document_node is not called here, but benchmarks/tracer.py wraps it under this module's name.
from .pair_model import (encode_triggers, feature_sources, row_blocks, score_batch_node,  # noqa: F401
                         score_document_node, score_pairs)

# Most mention pairs one packed training record holds.  Short documents
# pack several to a record; a document with more pairs trains alone, and
# one with more than ``pair_model.BLOCK_PAIRS`` trains in row blocks.
PAIR_BUDGET = 256

# Per-feature resampling probabilities; zero for features whose
# predictors stay reliable on held-out text, larger for the fragile ones.
DEFAULT_NOISE_EPS = {"Type": 0.0, "Polarity": 0.0, "Modality": 0.15, "Genericity": 0.15, "Tense": 0.25}


@dataclass(frozen=True)
class NoiseConfig:
    """Per-feature resampling probabilities plus their cardinalities."""

    epsilons: tuple[float, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.epsilons) != len(self.cardinalities):
            raise ValueError("one epsilon per feature required")
        for e in self.epsilons:
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"epsilon {e} outside [0, 1]")

    @classmethod
    def for_schema(cls, schema, table=None):
        table = DEFAULT_NOISE_EPS if table is None else table
        eps = tuple(float(table.get(name, 0.0)) for name in schema.names)
        return cls(epsilons=eps, cardinalities=tuple(schema.cardinalities))


def apply_noise(doc, noise, rng):
    """Fresh copy of ``doc`` with feature values resampled per Algorithm-style noise.

    For each mention and feature u, with probability eps_u the value is
    redrawn uniformly over ALL N_u values (it may land on the original).
    Tokens, spans, and gold clusters are never touched.
    """
    mentions = []
    for m in doc.mentions:
        values = list(m.features)
        for u, eps in enumerate(noise.epsilons):
            if eps > 0.0 and rng.random() < eps:
                values[u] = 1 + int(rng.integers(noise.cardinalities[u]))
        mentions.append(replace(m, features=tuple(values)))
    return Document(doc_id=doc.doc_id, tokens=doc.tokens, mentions=mentions)


def gold_antecedents(i, gold_ids):
    """Indices of coreferent predecessors of mention i; empty means dummy."""
    if gold_ids[i] is None:
        raise ValueError(f"mention {i} has no gold cluster")
    out = []
    for j in range(i):
        if gold_ids[j] is None:
            raise ValueError(f"mention {j} has no gold cluster")
        if gold_ids[j] == gold_ids[i]:
            out.append(j)
    return out


def _checked(gold_ids):
    """``gold_ids`` as a list, once every mention is known to have a gold cluster."""
    gold_ids = list(gold_ids)
    if None in gold_ids:
        raise ValueError(f"mention {gold_ids.index(None)} has no gold cluster")
    return gold_ids


def _antecedent_terms(flat, gold_ids, rows=None):
    """The loss over mentions a <= i < b and its gradient w.r.t. their flat pair scores.

    ``rows`` is (a, b), or None for the whole document; ``gold_ids`` are
    always the whole document's, and all are checked.  Row i-a of a
    (b-a, b) candidate matrix holds mention i's scores against every
    j < i, -inf padding, and the dummy antecedent pinned at 0 in the last
    column.  The gold mask marks the coreferent j < i, or the dummy when
    there are none.  Both log-sums of a row share one detached max shift,
    so their difference never routes through a large intermediate value.
    The gradient of each row is p_all - p_gold.
    """
    gold_ids = _checked(gold_ids)
    k = len(gold_ids)
    a, b = (1, k) if rows is None else (max(rows[0], 1), rows[1])
    if b <= a:
        return 0.0, np.zeros(0)
    index = {}
    codes = np.array([index.setdefault(g, len(index)) for g in gold_ids])
    pairs = row_block(k, a, b)
    i_vec, j_vec = pairs.i, pairs.j
    rows = i_vec - a
    cand = np.full((b - a, b), -np.inf)
    cand[rows, j_vec] = flat
    cand[:, -1] = 0.0
    x = cand - cand.max(axis=1, keepdims=True)
    gold = np.zeros((b - a, b), dtype=bool)
    gold[rows, j_vec] = codes[i_vec] == codes[j_vec]
    gold[:, -1] = ~gold.any(axis=1)
    lse_all, p_all = logsumexp_rows(x)
    lse_gold, p_gold = logsumexp_rows(np.where(gold, x, -np.inf))
    return (lse_all - lse_gold).sum(), (p_all - p_gold)[rows, j_vec]


def antecedent_nll(scores, gold_ids):
    """Marginal antecedent negative log-likelihood, as a float.

    The dummy antecedent score is fixed at 0 and stands in for the gold
    set whenever a mention has no coreferent predecessor.
    """
    return float(_antecedent_terms(scores.flat, gold_ids)[0])


def antecedent_nll_node(scores_node, golds, tape, rows=None):
    """The loss of packed documents as one recorded scalar node on ``tape``, for backpropagation.

    ``golds`` holds each document's gold ids.  Document d's k_d (k_d - 1) / 2
    scores follow document d-1's in ``scores_node``, as ``score_batch_node``
    lays them out.  With ``rows`` = (a, b), ``golds`` holds one document
    and the scores and loss cover its rows a <= i < b only (one of
    ``row_blocks``).  Returns the node, whose value is the documents'
    summed loss, and the (D,) per-document losses.
    """
    if scores_node.tape is not tape:
        raise ValueError("scores recorded on a different tape")
    if rows is not None and len(golds) != 1:
        raise ValueError(f"a row block covers one document, got {len(golds)}")
    flat = scores_node.value
    sizes = [len(gold) * (len(gold) - 1) // 2 for gold in golds]
    if rows is not None:
        sizes = [rows[1] * (rows[1] - 1) // 2 - rows[0] * (rows[0] - 1) // 2]
    if sum(sizes) != flat.shape[0]:
        raise ValueError(f"{flat.shape[0]} scores for documents holding {sum(sizes)} pairs")
    losses, grads = np.zeros(len(golds)), []
    start = 0
    for d, (gold, size) in enumerate(zip(golds, sizes)):
        losses[d], grad = _antecedent_terms(flat[start : start + size], gold, rows)
        grads.append(grad)
        start += size
    return precomputed(scores_node, losses.sum(), np.concatenate(grads)), losses


def batch_loss_node(docs, model, tape):
    """Scores and ranking loss of ``docs``, packed into one record (``score_batch_node``).

    Returns the summed loss node and the (D,) per-document losses; the
    node is None, and every loss 0, when no document has two mentions.
    """
    golds = [_checked(m.gold_cluster for m in doc.mentions) for doc in docs]
    scores, _ = score_batch_node(docs, model, tape)
    if scores is None:
        return None, np.zeros(len(docs))
    return antecedent_nll_node(scores, golds, tape)


def document_loss_node(doc, model, tape):
    """Build the full scoring + ranking loss record for one document."""
    return batch_loss_node([doc], model, tape)[0]


def _block_loss(doc, golds, model, t_leaf, rows):
    """Loss of the row block ``rows`` of ``doc``, backpropagated on a tape that dies on return."""
    k = len(golds)
    tape = Tape()
    sources = feature_sources(doc.mentions, model, tape, k * (k - 1) // 2)
    scores = score_pairs(tape.watch(t_leaf), sources, row_block(k, *rows), model)
    loss, losses = antecedent_nll_node(scores, [golds], tape, rows)
    tape.backward(loss)
    tape.release()
    return losses[0]


def train_blocks(doc, model):
    """Loss of one document, adding its gradient to the parameters' grads one row block at a time.

    The encoder runs once, on its own tape.  Each block of antecedent
    rows (``row_blocks``) gets a tape of its own, on which the trigger
    rows are a leaf whose gradient adds up across blocks; its scores and
    loss cover its rows only, and its tape is freed before the next
    block starts.  After the last block, the trigger rows' gradient runs
    back through the encoder tape in one ``precomputed`` node.  Loss and
    gradients are those of ``document_loss_node`` up to summation order,
    while memory holds one block's pair terms rather than all k^2.
    """
    golds = _checked(m.gold_cluster for m in doc.mentions)
    tape = Tape()
    t_all = encode_triggers([doc], model, tape)
    t_leaf = Parameter("trigger_rows", t_all.value)
    loss = sum(_block_loss(doc, golds, model, t_leaf, rows) for rows in row_blocks(len(golds)))
    tape.backward(precomputed(t_all, loss, t_leaf.grad))
    tape.release()
    return loss


def record_losses(group, model):
    """Per-document losses of one training record, its gradient added to the parameters' grads.

    A record of one document with more than ``pair_model.BLOCK_PAIRS``
    pairs trains in row blocks (``train_blocks``); any other record is one
    packed tape (``batch_loss_node``), backpropagated only when every
    loss is finite.
    """
    k = len(group[0].mentions)
    if len(group) == 1 and k * (k - 1) // 2 > pair_model.BLOCK_PAIRS:
        return [train_blocks(group[0], model)]
    tape = Tape()
    loss, losses = batch_loss_node(group, model, tape)
    if loss is not None and np.isfinite(losses).all():
        tape.backward(loss)
    tape.release()
    return losses


def pair_groups(docs, budget):
    """Split ``docs``, in order, into runs of at most ``budget`` mention pairs.

    A document with more pairs than the budget forms a run of its own.
    """
    groups, size = [], 0
    for doc in docs:
        k = len(doc.mentions)
        pairs = k * (k - 1) // 2
        if groups and size + pairs <= budget:
            groups[-1].append(doc)
            size += pairs
        else:
            groups.append([doc])
            size = pairs
    return groups


class Adam:
    """Adam-style moments with one learning rate per parameter group."""

    def __init__(self, params, rates, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.rates = dict(rates)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {p.name: np.zeros_like(p.value) for p in self.params}
        self.v = {p.name: np.zeros_like(p.value) for p in self.params}
        self.t = 0

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p in self.params:
            g = p.grad
            m, v = self.m[p.name], self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.rates[p.group] * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    lower_lr: float = 1e-3      # encoder + feature embedders
    upper_lr: float = 2.5e-3    # all pair-model FFNNs
    batch_size: int = 8
    epochs: int = 20
    seed: int = 0
    noise: bool = False

    def validate(self):
        if self.lower_lr <= 0 or self.upper_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainHistory:
    """Per-epoch mean document loss; dev AVG includes the pre-training value."""

    epoch_loss: list = field(default_factory=list)
    dev_avg: list = field(default_factory=list)
    best_epoch: int | None = None

    def to_dict(self):
        return {"epoch_loss": self.epoch_loss, "dev_avg": self.dev_avg, "best_epoch": self.best_epoch}


def evaluate_avg(model, docs):
    """AVG metric of the model's predictions against gold clusters."""
    keys = {doc.doc_id: gold_clustering(doc) for doc in docs}
    return corpus_report(keys, predict_corpus(model, docs)).avg


def train(model, docs, config, noise=None, dev_docs=None):
    """Optimize ``model`` in place; returns the training history.

    Batches are seeded shuffles of the corpus; noise (when enabled) is
    re-applied every time a batch is formed.  With a dev corpus the
    parameters revert to the best-dev-AVG epoch before returning.
    """
    config.validate()
    if not docs:
        raise ValueError("empty training corpus")
    if config.noise and noise is None:
        raise ValueError("noise enabled but no NoiseConfig given")
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), {"lower": config.lower_lr, "upper": config.upper_lr})
    history = TrainHistory()
    best = None
    if dev_docs is not None:
        avg = evaluate_avg(model, dev_docs)
        history.dev_avg.append(avg)
        history.best_epoch = 0
        best = (avg, model.copy_values())

    for epoch in range(config.epochs):
        order = rng.permutation(len(docs))
        epoch_total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [docs[int(di)] for di in order[start : start + config.batch_size]]
            if config.noise:
                batch = [apply_noise(doc, noise, rng) for doc in batch]
            model.zero_grads()
            for group in pair_groups(batch, PAIR_BUDGET):
                for doc, value in zip(group, record_losses(group, model)):
                    if not np.isfinite(value):
                        raise RuntimeError(
                            f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}, "
                            f"document {doc.doc_id!r}"
                        )
                    epoch_total += float(value)
            opt.step()
        history.epoch_loss.append(epoch_total / len(docs))
        if dev_docs is not None:
            avg = evaluate_avg(model, dev_docs)
            history.dev_avg.append(avg)
            if avg > best[0]:
                best = (avg, model.copy_values())
                history.best_epoch = epoch + 1

    if best is not None:
        model.load_values(best[1])
    return history


def gradcheck_instance(schema, seed):
    """A fixed 3-mention document with in-range features and mixed clusters."""
    from .corpus import Mention

    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(10)]
    spans = [(1, 1), (4, 5), (8, 8)]
    cards = schema.cardinalities
    mentions = [
        Mention(start=s, end=e,
                features=tuple(1 + int(rng.integers(c)) for c in cards),
                gold_cluster=g)
        for (s, e), g in zip(spans, (0, 1, 0))
    ]
    return Document(doc_id="gradcheck", tokens=tokens, mentions=mentions)


def _as_docs(docs):
    return [docs] if isinstance(docs, Document) else list(docs)


def full_model_grad_check(model, docs, step=1e-5, tol=1e-4, corrupt=None):
    """Gradient check of the complete loss of one document or a packed batch, one block per Parameter."""
    from .autodiff import grad_check

    docs = _as_docs(docs)

    def closure():
        tape = Tape()
        return tape, batch_loss_node(docs, model, tape)[0]

    return grad_check(closure, model.parameters(), step=step, tol=tol, corrupt=corrupt)


def warm_to_loss(model, docs, target=1e-3, lr=5e-3, max_steps=500):
    """Deterministically descend the loss of one document or a packed batch to ``target``.

    The finite-difference check runs at this near-optimum: at a random
    init the loss sits at its log-counting scale, whose float64
    quantization across the +/-step evaluations is coarser than the
    check's error floor can tolerate, regardless of gradient
    correctness.  Near the optimum every magnitude involved is small and
    central differences resolve cleanly.
    """
    docs = _as_docs(docs)
    opt = Adam(model.parameters(), {"lower": lr, "upper": lr})
    for _ in range(max_steps):
        model.zero_grads()
        tape = Tape()
        loss = batch_loss_node(docs, model, tape)[0]
        if float(loss.value) < target:
            tape.release()
            break
        tape.backward(loss)
        tape.release()
        opt.step()
    return model
