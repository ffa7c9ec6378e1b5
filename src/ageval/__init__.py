"""Acoustics-guided evaluation toolkit.

Scores degraded or enhanced speech against a clean reference by comparing
state posteriors from a feed-forward acoustic model (cross-entropy), with
entropy-confidence and band-envelope intelligibility baselines, and fits a
logistic mapping to correlate any of these measures with word error rates.
"""

from .am import (
    AcousticModel,
    LayerSpec,
    PosteriorMatrix,
    cross_entropy_loss,
    forward,
    frame_error_rate,
    load_model,
    save_model,
    train_toy,
)
from .dsp import (
    FeatureMatrix,
    FrameSpec,
    MelSpec,
    Waveform,
    fbank,
    load_wav,
    mix_at_snr,
    mvn,
    resample,
    save_wav,
)
from .errors import AgevalError
from .fixture import make_fixture_corpus
from .harness import (
    Correlation,
    GroupReport,
    ManifestEntry,
    RunConfig,
    ScoreRow,
    ScoreTable,
    correlate_by_group,
    emit_report,
    load_manifest,
    load_scores_csv,
    score_manifest,
    score_utterance,
    write_scores_csv,
)
from .measures import MeasureScore, age, entropy_confidence, stoi
from .stats import (
    CorrelationReport,
    LogisticParams,
    evaluate_measure,
    fit_logistic,
    map_logistic,
    pearson,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "AcousticModel",
    "AgevalError",
    "Correlation",
    "CorrelationReport",
    "FeatureMatrix",
    "FrameSpec",
    "GroupReport",
    "LayerSpec",
    "LogisticParams",
    "ManifestEntry",
    "MeasureScore",
    "MelSpec",
    "PosteriorMatrix",
    "RunConfig",
    "ScoreRow",
    "ScoreTable",
    "Waveform",
    "age",
    "correlate_by_group",
    "cross_entropy_loss",
    "emit_report",
    "entropy_confidence",
    "evaluate_measure",
    "fbank",
    "fit_logistic",
    "forward",
    "frame_error_rate",
    "load_manifest",
    "load_model",
    "load_scores_csv",
    "load_wav",
    "make_fixture_corpus",
    "map_logistic",
    "mix_at_snr",
    "mvn",
    "pearson",
    "resample",
    "save_model",
    "save_wav",
    "score_manifest",
    "score_utterance",
    "spearman",
    "stoi",
    "train_toy",
    "write_scores_csv",
]
