"""Spans around calls into evcoref's public functions, wrapped from outside.

The benchmark does not change the package to trace it.  Each traced
function is replaced, on the module or class where its caller looks it
up, by a wrapper that records one span: a name, a start and end time,
the span that was open when it started (its parent) and one measured
value, such as the nodes on the tape handed to ``Tape.backward``.  Spans
stay in flat arrays in memory until the run ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  The package runs single-threaded, so child spans never
overlap and that time is the plain sum of the child durations.
"""
from __future__ import annotations

import json
import time
from array import array

clock = time.perf_counter

# Parent spans that set a pair-model call's context: scoring for the
# training loss, or scoring to predict (dev evaluation and test).
CONTEXTS = {"training.train": "train", "inference.predict_corpus": "inference"}

PAIR_LAYERS = ("trigger_pair", "feature_pair", "cdgm", "score_pair", "score_document")


def _pairs(k):
    return k * (k - 1) // 2


def targets(ev):
    """(owner, attribute, span name, measure) for every traced call.

    ``ev`` is the imported ``evcoref`` package.  Each attribute is the
    one its caller looks up: ``run_experiment`` calls ``train`` from the
    ``experiment`` module's namespace, ``score_document_node`` calls
    ``cdgm`` from ``pair_model``'s, and the benchmark's own calls go
    through ``evcoref.training.train`` or ``evcoref.inference.predict_corpus``.
    ``measure(args, result, before)`` gives the span's value; ``before``
    is what ``measure(args, None, None)`` returned when the call began.
    """
    ex, tr, inf, pm, met = ev.experiment, ev.training, ev.inference, ev.pair_model, ev.metrics

    def tape_nodes(args, out, before):
        return len(args[0]._record)

    def loss_nodes(args, out, before):
        n = len(args[2]._record)
        return n if out is None else n - before

    def doc_pairs(args, out, before):
        return _pairs(len(args[0].mentions))

    def links(args, out, before):
        return 0 if out is None else sum(a is not inf.DUMMY for a in out)

    return [
        (ex, "generate_corpus", "corpus.generate_corpus", None),
        (ex, "corrupt_features", "corpus.corrupt_features", None),
        (ex, "run_variant", lambda args: "experiment." + args[2], None),
        (ex, "train", "training.train", None),
        (tr, "train", "training.train", None),
        (tr, "apply_noise", "training.noise", None),
        (tr, "score_document_node", "pair_model.score_document", doc_pairs),
        (tr, "antecedent_nll_node", "training.loss", loss_nodes),
        (tr, "evaluate_avg", "training.dev_eval", None),
        (tr.Adam, "step", "training.adam", None),
        (ev.autodiff.Tape, "backward", "autodiff.backward", tape_nodes),
        (ex, "predict_corpus", "inference.predict_corpus", None),
        (tr, "predict_corpus", "inference.predict_corpus", None),
        (inf, "predict_corpus", "inference.predict_corpus", None),
        (inf, "score_document", "inference.score", None),
        (inf, "decode_antecedents", "inference.decode", links),
        (inf, "clusters_from_links", "inference.clusters", None),
        (pm, "score_document_node", "pair_model.score_document", doc_pairs),
        (pm, "encode_tokens", "encoder.encode_tokens", None),
        (pm, "trigger_reprs", "encoder.trigger_reprs", None),
        (pm, "feature_rows", "encoder.feature_rows", None),
        (pm, "trigger_pair", "pair_model.trigger_pair", None),
        (pm, "feature_pair", "pair_model.feature_pair", None),
        (pm, "cdgm", "pair_model.cdgm", None),
        (pm, "score_pair", "pair_model.score_pair", None),
        (met, "muc_counts", "metrics.muc", None),
        (met, "b_cubed_counts", "metrics.b3", None),
        (met, "ceaf_e_counts", "metrics.ceaf_e", None),
        (met, "blanc_counts", "metrics.blanc", None),
    ]


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._patched = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr, name, measure=None):
        """Replace ``owner.attr`` by a recording wrapper.

        A missing attribute raises AttributeError here, before any work
        runs, so a rename in the package stops the benchmark at once.
        """
        original = getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        name_id, parent, start, end, value, stack = (
            self.name_id, self.parent, self.start, self.end, self.value, self._stack)

        def traced(*args, **kwargs):
            before = measure(args, None, None) if measure is not None else 0.0
            span = len(start)
            name_id.append(fixed if fixed is not None else self._id(name(args)))
            parent.append(stack[-1])
            value.append(0.0)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                out = original(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if measure is not None:
                value[span] = measure(args, out, before)
            return out

        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, ev):
        for owner, attr, name, measure in targets(ev):
            self.wrap(owner, attr, name, measure)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summarize(self, lo, hi):
        """Per span name, and per (context, name), within [lo, hi].

        Returns {key: [calls, self seconds, total seconds, value sum]}
        where key is a span name or "context/name".
        """
        n = len(self.start)
        names, name_id, parent, start, end, value = (
            self.names, self.name_id, self.parent, self.start, self.end, self.value)
        child = [0.0] * n
        context = [None] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            # A parent's index is always below its children's.
            name = names[name_id[i]]
            context[i] = CONTEXTS.get(name) or (context[p] if p >= 0 else None)
        out = {}
        for i in range(n):
            if start[i] < lo or end[i] > hi:
                continue
            dur = end[i] - start[i]
            name = names[name_id[i]]
            keys = (name,) if context[i] is None else (name, f"{context[i]}/{name}")
            for key in keys:
                row = out.setdefault(key, [0, 0.0, 0.0, 0.0])
                row[0] += 1
                row[1] += dur - child[i]
                row[2] += dur
                row[3] += value[i]
        return out

    def corpus_seconds(self):
        """Total time in corpus generation over the whole process."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.names[self.name_id[i]].startswith("corpus.")
        )

    def write(self, path):
        """Write all spans as one JSON object of parallel columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": list(self.name_id),
                "parent": list(self.parent),
                "start": list(self.start),
                "end": list(self.end),
                "value": list(self.value),
            }, fh)


def layer_metrics(summary, corpus_s):
    """The benchmark's per-layer metrics, from ``Tracer.summarize``.

    Times are self times, except ``experiment.*_s`` (a variant's whole
    train and test) and ``training.dev_eval_s`` (a whole dev
    evaluation).  All cover the workload's timed part, except
    ``corpus.generate_s``, which covers the whole process.  Layers a
    workload does not run read 0.  What each should move, and where:

    - ``autodiff.backward_s``, ``autodiff.nodes_per_doc`` (nodes on the
      tape handed to ``Tape.backward``): train_docs_per_s on grid and
      long-train.  Backward is one number until the package traces
      inside itself.  ``autodiff.gc_collections`` and ``autodiff.gc_s``
      (measured untraced by run.py): peak_rss_mib and wall_s on the long
      workloads, wall_s on grid.
    - ``training.*``: train_docs_per_s and wall_s on grid and long-train;
      ``training.step_peak_kib_per_pair``: peak_rss_mib on long-train.
    - ``encoder.*``: train_docs_per_s on grid, predict_pairs_per_s on
      long-predict.
    - ``pair_model.*``, in total and split by the nearest enclosing
      ``train`` or ``predict_corpus`` call: predict_pairs_per_s on
      long-predict, train_docs_per_s on long-train.
      ``pair_model.useful_pair_frac`` is decoded links over pairs scored
      to predict, the ratio antecedent pruning would raise.
    - ``inference.*``: predict_pairs_per_s on long-predict;
      ``inference.score_peak_kib_per_pair``: peak_rss_mib on long-predict.
    - ``metrics.*``: wall_s on long-predict, and on grid through dev
      evaluations.
    - ``experiment.*_s``: wall_s on grid.  ``corpus.generate_s``: setup_s
      on the long workloads, wall_s on grid, which generates inside
      ``run_experiment``.

    Nothing contends for a resource here, so a faster layer saves at
    most its share of self time; memory is the exception, as tapes freed
    sooner cut both peak RSS and page-fault time.
    """
    def get(key, field):
        row = summary.get(key)
        return row[field] if row else 0

    def self_s(key):
        return get(key, 1)

    def per_call(key):
        calls = get(key, 0)
        return get(key, 3) / calls if calls else 0.0

    m = {
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.nodes_per_doc": per_call("autodiff.backward"),
        "training.loss_s": self_s("training.loss"),
        "training.loss_nodes_per_doc": per_call("training.loss"),
        "training.noise_s": self_s("training.noise"),
        "training.adam_s": self_s("training.adam"),
        "training.adam_steps": get("training.adam", 0),
        "training.dev_eval_s": get("training.dev_eval", 2),
        "encoder.encode_s": self_s("encoder.encode_tokens") + self_s("encoder.trigger_reprs"),
        "encoder.feature_rows_s": self_s("encoder.feature_rows"),
        "inference.score_s": self_s("inference.score"),
        "inference.decode_s": self_s("inference.decode"),
        "inference.clusters_s": self_s("inference.clusters"),
        "metrics.muc_s": self_s("metrics.muc"),
        "metrics.b3_s": self_s("metrics.b3"),
        "metrics.ceaf_e_s": self_s("metrics.ceaf_e"),
        "metrics.blanc_s": self_s("metrics.blanc"),
        "corpus.generate_s": corpus_s,
    }
    for prefix, scope in (("pair_model.", ""), ("pair_model.train.", "train/"),
                          ("pair_model.inference.", "inference/")):
        for layer in PAIR_LAYERS:
            m[f"{prefix}{layer}_s"] = self_s(f"{scope}pair_model.{layer}")
        m[f"{prefix}pairs"] = get(f"{scope}pair_model.score_document", 3)
    scored = get("inference/pair_model.score_document", 3)
    m["pair_model.useful_pair_frac"] = get("inference.decode", 3) / scored if scored else 0.0
    for variant in ("baseline", "simple", "simple+noise", "cdgm", "cdgm+noise"):
        # Metric names may not hold "+": cdgm+noise reads cdgm-noise.
        m["experiment." + variant.replace("+", "-") + "_s"] = get("experiment." + variant, 2)
    return m
