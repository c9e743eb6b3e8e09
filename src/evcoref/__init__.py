"""Event coreference resolution with gated fusion of noisy symbolic features."""

from .autodiff import (
    GradCheckReport,
    Parameter,
    ShapeMismatch,
    Tape,
    grad_check,
    project_decompose,
)
from .corpus import (
    CorpusError,
    Document,
    FeatureSchema,
    GenConfig,
    Mention,
    corrupt_features,
    generate_corpus,
    gold_clustering,
    load_corpus,
    save_corpus,
    validate_document,
)
from .encoder import build_vocab, embed_features, encode_tokens, trigger_repr
from .experiment import ExperimentSpec, VARIANTS, run_experiment
from .inference import DUMMY, clusters_from_links, decode_antecedents, predict_corpus
from .metrics import (
    MetricReport,
    MetricTriple,
    b_cubed,
    blanc,
    ceaf_e,
    corpus_report,
    document_report,
    hungarian,
    muc,
    summarize,
)
from .model import CorefModel, Dims
from .pair_model import (
    PairScores,
    assemble_pair,
    cdgm,
    feature_pair,
    score_document,
    score_pair,
    trigger_pair,
)
from .training import (
    NoiseConfig,
    TrainConfig,
    TrainHistory,
    antecedent_nll,
    apply_noise,
    train,
)

__version__ = "0.1.0"
