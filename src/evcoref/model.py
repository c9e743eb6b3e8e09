"""The full coreference model: encoder + embedders + pair scorer.

A model is a bag of named float64 Parameters plus the schema and
dimension metadata needed to rebuild it.  Persistence is plain JSON with
flat value lists in declaration order; save -> load -> save is
byte-identical, which the experiment pipeline relies on.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .corpus import FeatureSchema
from .encoder import init_encoder, init_feature_embedders
from .pair_model import init_pair_model, score_document

MODEL_FORMAT = "evcoref-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Dims:
    d: int = 64   # token/trigger width
    l: int = 16   # feature embedding width
    p: int = 32   # pair representation width
    w: int = 2    # encoder context half-window

    def to_dict(self):
        return {"d": self.d, "l": self.l, "p": self.p, "w": self.w}

    @classmethod
    def from_dict(cls, obj):
        return cls(d=int(obj["d"]), l=int(obj["l"]), p=int(obj["p"]), w=int(obj["w"]))


def schema_hash(schema):
    return hashlib.sha256(json.dumps(schema.to_dict()).encode()).hexdigest()[:16]


def config_hash(obj):
    """Stable short hash of any JSON-serializable configuration."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class CorefModel:
    def __init__(self, schema, vocab, mode, dims, seed, extra_meta=None):
        self.schema = schema
        self.mode = mode
        self.dims = dims
        self.seed = seed
        self.extra_meta = dict(extra_meta or {})
        rng = np.random.default_rng(seed)
        self.encoder = init_encoder(vocab, dims.d, dims.w, rng)
        self.embedders = init_feature_embedders(schema, dims.l, rng)
        self.pair = init_pair_model(schema, dims.d, dims.l, dims.p, mode, rng)

    def parameters(self):
        out = [self.encoder.embeddings, self.encoder.mix_w, self.encoder.mix_b]
        out.extend(self.embedders)
        out.extend(self.pair.params())
        return out

    def parameter(self, name):
        for p in self.parameters():
            if p.name == name:
                return p
        raise KeyError(name)

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def copy_values(self):
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_values(self, values):
        for p in self.parameters():
            p.value[...] = values[p.name]

    def score(self, doc):
        return score_document(doc, self)

    # -- persistence -------------------------------------------------

    def to_json_dict(self):
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "mode": self.mode,
            "seed": self.seed,
            "dims": self.dims.to_dict(),
            "schema": self.schema.to_dict(),
            "schema_hash": schema_hash(self.schema),
            "meta": self.extra_meta,
            "vocab": self.encoder.vocab,
            "params": [
                {
                    "name": p.name,
                    "group": p.group,
                    "shape": list(p.value.shape),
                    "values": p.value.reshape(-1).tolist(),
                }
                for p in self.parameters()
            ],
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if obj.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: not a model file")
        version = obj.get("version")
        if type(version) is not int or version != MODEL_VERSION:
            raise ValueError(f"{path}: model format version {version!r}, expected {MODEL_VERSION}")
        model = cls(
            schema=FeatureSchema.from_dict(obj["schema"]),
            vocab=list(obj["vocab"]),
            mode=obj["mode"],
            dims=Dims.from_dict(obj["dims"]),
            seed=obj["seed"],
            extra_meta=obj.get("meta"),
        )
        stored = {p["name"]: p for p in obj["params"]}
        for p in model.parameters():
            entry = stored.pop(p.name, None)
            if entry is None:
                raise ValueError(f"{path}: missing parameter {p.name!r}")
            values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
            if values.shape != p.value.shape:
                raise ValueError(
                    f"{path}: parameter {p.name!r} has shape {values.shape}, expected {p.value.shape}"
                )
            p.value[...] = values
        if stored:
            raise ValueError(f"{path}: unexpected parameters {sorted(stored)}")
        return model
