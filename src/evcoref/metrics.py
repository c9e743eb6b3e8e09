"""Coreference metric suite: MUC, B3, CEAF_e, BLANC, CoNLL and AVG.

All four metrics read one document's key x response overlap matrix
(``contingency``).  Each exposes a *_counts function returning
precision/recall numerators and denominators so that corpus-level scores
micro-average across documents, in the style of the standard reference
scorers (Pradhan et al. 2014; CEAF_e after Luo 2005).

Conventions: any 0/0 ratio is 0.  BLANC averages the F1 over coreference
links and the F1 over non-links, except in the degenerate cases where
only one link type exists on both sides, in which case that type's
triple is the score outright.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class MetricTriple:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, p_num, p_den, r_num, r_den):
        p = p_num / p_den if p_den > 0 else 0.0
        r = r_num / r_den if r_den > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f)

    def to_dict(self):
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass(frozen=True)
class MetricReport:
    muc: MetricTriple
    b3: MetricTriple
    ceaf_e: MetricTriple
    blanc: MetricTriple
    conll: float
    avg: float
    flags: tuple[str, ...] = field(default=())

    def to_dict(self):
        return {
            "muc": self.muc.to_dict(),
            "b3": self.b3.to_dict(),
            "ceaf_e": self.ceaf_e.to_dict(),
            "blanc": self.blanc.to_dict(),
            "conll": self.conll,
            "avg": self.avg,
            "flags": list(self.flags),
        }


def _check_partition(clusters, name):
    seen = set()
    for c in clusters:
        if not c:
            raise ValueError(f"{name}: empty cluster")
        for m in c:
            if m in seen:
                raise ValueError(f"{name}: mention {m!r} appears in two clusters")
            seen.add(m)
    return seen


def align_universes(key, response):
    """Extend each side with singletons for the other side's extra mentions."""
    key_mentions = _check_partition(key, "key")
    resp_mentions = _check_partition(response, "response")
    key = list(key) + [[m] for m in sorted(resp_mentions - key_mentions)]
    response = list(response) + [[m] for m in sorted(key_mentions - resp_mentions)]
    return key, response


def contingency(key, response):
    """(|key|, |response|) overlap counts C of two aligned partitions.

    C[i, j] is the number of mentions in key cluster i and response
    cluster j; its row and column sums are the cluster sizes.
    """
    owner = {m: j for j, c in enumerate(response) for m in c}
    cells = np.fromiter((i * len(response) + owner[m] for i, c in enumerate(key) for m in c),
                        dtype=np.int64)
    return np.bincount(cells, minlength=len(key) * len(response)).reshape(len(key), len(response))


def muc_counts(C):
    """Link-based counts: a cluster of n mentions split into p parts keeps n - p links."""
    n, parts = int(C.sum()), int(np.count_nonzero(C))
    return n - parts, n - C.shape[1], n - parts, n - C.shape[0]


def b_cubed_counts(C):
    """Per-mention overlap ratios, summed as sum_ij C_ij^2 / |cluster| (denominator = mentions)."""
    squares, n = C * C, int(C.sum())
    p_num = float((squares.sum(axis=0) / C.sum(axis=0)).sum())
    r_num = float((squares.sum(axis=1) / C.sum(axis=1)).sum())
    return p_num, n, r_num, n


def phi4(key_cluster, response_cluster):
    overlap = len(set(key_cluster) & set(response_cluster))
    return 2.0 * overlap / (len(key_cluster) + len(response_cluster))


def hungarian(similarity):
    """Maximum-weight one-to-one alignment value of a similarity matrix."""
    similarity = np.asarray(similarity, dtype=np.float64)
    if similarity.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(similarity, maximize=True)
    return float(similarity[rows, cols].sum())


def ceaf_e_counts(C):
    """Hungarian alignment of clusters under phi4 = 2|K & R| / (|K| + |R|)."""
    total = hungarian(2.0 * C / (C.sum(axis=1)[:, None] + C.sum(axis=0)[None, :]))
    return total, C.shape[1], total, C.shape[0]


def _links(sizes):
    """Number of mention pairs inside groups of the given sizes."""
    return int((sizes * (sizes - 1) // 2).sum())


def blanc_counts(C):
    """(num, p_den, r_den) for coref links and for non-coref links."""
    n_pairs, both = _links(C.sum()), _links(C)
    key_links, resp_links = _links(C.sum(axis=1)), _links(C.sum(axis=0))
    non = n_pairs - (key_links + resp_links - both)
    return (both, resp_links, key_links), (non, n_pairs - resp_links, n_pairs - key_links)


def blanc_from_counts(coref, non):
    c_triple = MetricTriple.from_counts(coref[0], coref[1], coref[0], coref[2])
    n_triple = MetricTriple.from_counts(non[0], non[1], non[0], non[2])
    if coref[1] == 0 and coref[2] == 0:
        return n_triple
    if non[1] == 0 and non[2] == 0:
        return c_triple
    return MetricTriple(
        precision=(c_triple.precision + n_triple.precision) / 2,
        recall=(c_triple.recall + n_triple.recall) / 2,
        f1=(c_triple.f1 + n_triple.f1) / 2,
    )


def muc(key, response):
    return document_report(key, response).muc


def b_cubed(key, response):
    return document_report(key, response).b3


def ceaf_e(key, response):
    return document_report(key, response).ceaf_e


def blanc(key, response):
    """Rand-style mean of the link F1 and the non-link F1.

    With fewer than two mentions there are no pairs at all; the score is
    0 by convention and the report flags it.
    """
    return document_report(key, response).blanc


def summarize(muc_t, b3_t, ceafe_t, blanc_t):
    """(CoNLL, AVG): mean F1 over three resp. four metrics."""
    conll = (muc_t.f1 + b3_t.f1 + ceafe_t.f1) / 3
    avg = (muc_t.f1 + b3_t.f1 + ceafe_t.f1 + blanc_t.f1) / 4
    return conll, avg


@dataclass
class _Tally:
    muc: list = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    b3: list = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    ceafe: list = field(default_factory=lambda: [0.0, 0.0, 0.0, 0.0])
    blanc: list = field(default_factory=lambda: [0.0] * 6)

    def add(self, key, response):
        C = contingency(key, response)
        coref, non = blanc_counts(C)
        for acc, counts in (
            (self.muc, muc_counts(C)),
            (self.b3, b_cubed_counts(C)),
            (self.ceafe, ceaf_e_counts(C)),
            (self.blanc, coref + non),
        ):
            for i, c in enumerate(counts):
                acc[i] += c

    def report(self):
        muc_t = MetricTriple.from_counts(*self.muc)
        b3_t = MetricTriple.from_counts(*self.b3)
        ceafe_t = MetricTriple.from_counts(*self.ceafe)
        flags = []
        if not any(self.blanc):
            blanc_t = MetricTriple(0.0, 0.0, 0.0)
            flags.append("blanc degenerate: fewer than 2 mentions")
        else:
            blanc_t = blanc_from_counts(self.blanc[:3], self.blanc[3:])
        conll, avg = summarize(muc_t, b3_t, ceafe_t, blanc_t)
        return MetricReport(muc=muc_t, b3=b3_t, ceaf_e=ceafe_t, blanc=blanc_t,
                            conll=conll, avg=avg, flags=tuple(flags))


def document_report(key, response):
    """Score one document's clusterings."""
    return corpus_report({None: key}, {None: response})


def corpus_report(keys, responses):
    """Micro-averaged scores over aligned {doc_id: clustering} maps."""
    missing = sorted(set(keys) - set(responses))
    if missing:
        raise ValueError(f"missing doc_id in response: {missing[0]!r}")
    extra = sorted(set(responses) - set(keys))
    if extra:
        raise ValueError(f"missing doc_id in key: {extra[0]!r}")
    tally = _Tally()
    for doc_id in keys:
        key, response = align_universes(keys[doc_id], responses[doc_id])
        tally.add(key, response)
    return tally.report()


def format_report(report):
    """Aligned plain-text table of a MetricReport."""
    rows = [("metric", "P", "R", "F1")]
    for name, triple in (("MUC", report.muc), ("B3", report.b3),
                         ("CEAF_e", report.ceaf_e), ("BLANC", report.blanc)):
        rows.append((name, f"{triple.precision:.4f}", f"{triple.recall:.4f}", f"{triple.f1:.4f}"))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = ["  ".join(val.ljust(widths[c]) for c, val in enumerate(row)).rstrip() for row in rows]
    lines.append(f"CoNLL  {report.conll:.4f}")
    lines.append(f"AVG    {report.avg:.4f}")
    for flag in report.flags:
        lines.append(f"note: {flag}")
    return "\n".join(lines)
