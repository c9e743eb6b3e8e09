"""Inside the pair scorer: trigger pairs, feature pairs, and the gate.

The gate decides, per coordinate, how much of a feature pair's new
(orthogonal) information to pass through versus how much to fall back
on what the trigger context already carries.

A feature pair vector h_ij depends only on the two mentions' values of
that feature, so the scorer can run each feature FFNN once per value
pair and let every mention pair gather its row by value code.
"""

import numpy as np

from evcoref.autodiff import Tape, concat, full_pairs, project_decompose, row_pairs, take_rows
from evcoref.corpus import Document, FeatureSchema, Mention
from evcoref.encoder import encode_tokens, feature_rows, trigger_reprs
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import (
    assemble_pair,
    cdgm,
    feature_pair,
    ffnn_apply,
    score_pair,
    trigger_pair,
)

schema = FeatureSchema((("Type", 4), ("Modality", 2)))
doc = Document(
    "demo",
    ["the", "troops", "leave", "as", "they", "head", "out", "today"],
    [
        Mention(2, 2, (1, 2), gold_cluster=0),
        Mention(5, 6, (1, 1), gold_cluster=0),
    ],
)
model = CorefModel(schema, ["<unk>"] + sorted(set(doc.tokens)), "cdgm",
                   Dims(d=12, l=6, p=8, w=2), seed=3)

tape = Tape()
x = encode_tokens(doc, model.encoder, tape)
pairs = row_pairs(2)  # the one pair (i, j) = (1, 0)
t01 = trigger_pair(trigger_reprs(x, doc.mentions), pairs, model.pair)
print("trigger-pair vector t_ij:", np.round(t01.value[0], 3))

parts = []
for u, (name, card) in enumerate(schema.features):
    rows = feature_rows(doc.mentions, u, card)
    h01 = feature_pair(take_rows(tape.watch(model.embedders[u]), rows), pairs, model.pair, u)
    table = feature_pair(tape.watch(model.embedders[u]), full_pairs(card), model.pair, u)
    code = rows[1] * card + rows[0]
    gate = ffnn_apply(model.pair.ffnn_g[u], concat([t01, h01]))
    par, orth = project_decompose(t01, h01)
    fused = cdgm(t01, h01, model.pair, u)
    parts.append(fused)
    print(f"\nfeature {name}:")
    print("  pair vector h_ij:", np.round(h01.value[0], 3))
    print(f"  same as row {code} of the {card}x{card} value-pair table:",
          np.allclose(table.value[code], h01.value[0], rtol=1e-12, atol=0))
    print("  gate (0=trust context, 1=trust feature):", np.round(gate.value[0], 3))
    print("  parallel part:  ", np.round(par.value[0], 3))
    print("  orthogonal part:", np.round(orth.value[0], 3))
    print("  fused output:   ", np.round(fused.value[0], 3))

f01 = assemble_pair(t01, parts, "cdgm")
score = score_pair(f01, model.pair)
print(f"\nfinal pair representation width: {f01.value.shape[1]}")
print(f"coreference score s(1, 0) at random init: {float(score.value[0]):+.4f}")
print("(the dummy antecedent is pinned at 0, so positive means 'link')")
