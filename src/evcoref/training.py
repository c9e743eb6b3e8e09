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

from .autodiff import Tape, logsumexp_rows, precomputed
from .corpus import Document, gold_clustering
from .inference import predict_corpus
from .metrics import corpus_report
from .pair_model import pair_indices, score_document_node

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


def _antecedent_terms(flat, gold_ids):
    """The loss over all mentions and its gradient w.r.t. the flat pair scores.

    Row i-1 of a (k-1, k) candidate matrix holds mention i's scores
    against every j < i, -inf padding, and the dummy antecedent pinned at
    0 in the last column.  The gold mask marks the coreferent j < i, or
    the dummy when there are none.  Both log-sums of a row share one
    detached max shift, so their difference never routes through a large
    intermediate value.  The gradient of each row is p_all - p_gold.
    """
    gold_ids = list(gold_ids)
    k = len(gold_ids)
    if k < 2:
        return 0.0, np.zeros(0)
    if None in gold_ids:
        raise ValueError(f"mention {gold_ids.index(None)} has no gold cluster")
    index = {}
    codes = np.array([index.setdefault(g, len(index)) for g in gold_ids])
    i_vec, j_vec = pair_indices(k)
    rows = i_vec - 1
    cand = np.full((k - 1, k), -np.inf)
    cand[rows, j_vec] = flat
    cand[:, -1] = 0.0
    x = cand - cand.max(axis=1, keepdims=True)
    gold = np.zeros((k - 1, k), dtype=bool)
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


def antecedent_nll_node(scores_node, gold_ids, tape):
    """Same loss as one recorded scalar node on ``tape``, for backpropagation."""
    if scores_node.tape is not tape:
        raise ValueError("scores recorded on a different tape")
    loss, grad = _antecedent_terms(scores_node.value, gold_ids)
    return precomputed(scores_node, loss, grad)


def document_loss_node(doc, model, tape):
    """Build the full scoring + ranking loss record for one document."""
    scores = score_document_node(doc, model, tape)
    if scores is None:
        return None
    return antecedent_nll_node(scores, [m.gold_cluster for m in doc.mentions], tape)


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
            batch = order[start : start + config.batch_size]
            model.zero_grads()
            for di in batch:
                doc = docs[int(di)]
                if config.noise:
                    doc = apply_noise(doc, noise, rng)
                tape = Tape()
                loss = document_loss_node(doc, model, tape)
                if loss is None:
                    continue
                value = float(loss.value)
                if not np.isfinite(value):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}, "
                        f"document {doc.doc_id!r}"
                    )
                epoch_total += value
                tape.backward(loss)
                tape.release()
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


def full_model_grad_check(model, doc, step=1e-5, tol=1e-4, corrupt=None):
    """Gradient check of the complete document loss, one block per Parameter."""
    from .autodiff import grad_check

    def closure():
        tape = Tape()
        return tape, document_loss_node(doc, model, tape)

    return grad_check(closure, model.parameters(), step=step, tol=tol, corrupt=corrupt)


def warm_to_loss(model, doc, target=1e-3, lr=5e-3, max_steps=500):
    """Deterministically descend the single-document loss to ``target``.

    The finite-difference check runs at this near-optimum: at a random
    init the loss sits at its log-counting scale, whose float64
    quantization across the +/-step evaluations is coarser than the
    check's error floor can tolerate, regardless of gradient
    correctness.  Near the optimum every magnitude involved is small and
    central differences resolve cleanly.
    """
    opt = Adam(model.parameters(), {"lower": lr, "upper": lr})
    for _ in range(max_steps):
        model.zero_grads()
        tape = Tape()
        loss = document_loss_node(doc, model, tape)
        if float(loss.value) < target:
            tape.release()
            break
        tape.backward(loss)
        tape.release()
        opt.step()
    return model
