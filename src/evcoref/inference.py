"""Greedy antecedent decoding and link-to-cluster consolidation."""
from __future__ import annotations

import json

import numpy as np

from .pair_model import score_document

# Marker for "no antecedent" in an assignment list.
DUMMY = None


def decode_antecedents(scores):
    """Pick each mention's best-scoring antecedent, or DUMMY.

    The dummy antecedent has fixed score 0, so a mention links only when
    some predecessor scores strictly above 0.  Ties at the maximum pick
    the earliest antecedent; a tie with the dummy stays DUMMY.
    """
    out = [DUMMY][:scores.k]
    for i in range(1, scores.k):
        row = scores.row(i)
        if not np.all(np.isfinite(row)):
            raise ValueError(f"non-finite score for mention {i}")
        best = row.max()
        out.append(DUMMY if best <= 0.0 else int(np.argmax(row)))
    return out


def clusters_from_links(assignment):
    """Transitive closure of antecedent links, singletons retained.

    Antecedents point backward, so one forward pass gives each mention
    its antecedent's cluster.  Returns clusters as sorted index lists,
    ordered by first mention.
    """
    clusters, owner = [], []
    for i, a in enumerate(assignment):
        if a is DUMMY:
            owner.append(len(clusters))
            clusters.append([])
        elif not 0 <= a < i:
            raise ValueError(f"antecedent {a} of mention {i} is not a predecessor")
        else:
            owner.append(owner[a])
        clusters[owner[i]].append(i)
    return clusters


def predict_document(model, doc, drop_singletons=False):
    clusters = clusters_from_links(decode_antecedents(score_document(doc, model)))
    if drop_singletons:
        clusters = [c for c in clusters if len(c) > 1]
    return clusters


def predict_corpus(model, docs, drop_singletons=False):
    return {doc.doc_id: predict_document(model, doc, drop_singletons) for doc in docs}


def save_clusterings(clusterings, path):
    """Write one {"doc_id", "clusters"} object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, clusters in clusterings.items():
            fh.write(json.dumps({"doc_id": doc_id, "clusters": clusters}) + "\n")


def load_clusterings(path):
    """Read {doc_id: clusters}; clusters are lists of integer mention ids."""
    out, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {ln}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: malformed JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "doc_id" not in obj or "clusters" not in obj:
                raise ValueError(f"{where}: need doc_id and clusters fields")
            doc_id, clusters = obj["doc_id"], obj["clusters"]
            if type(doc_id) is not str:
                raise ValueError(f"{where}: doc_id {doc_id!r} is not a string")
            if doc_id in first_line:
                raise ValueError(f"{where}: duplicate doc_id {doc_id!r} (first on line {first_line[doc_id]})")
            if not isinstance(clusters, list) or not all(isinstance(c, list) for c in clusters):
                raise ValueError(f"{where}: clusters must be a list of lists")
            bad = [m for c in clusters for m in c if type(m) is not int]
            if bad:
                raise ValueError(f"{where}: mention id {bad[0]!r} is not an integer")
            first_line[doc_id] = ln
            out[doc_id] = clusters
    return out
