"""seqfuse: frame-aligned multimodal fusion and LSTM regression for
continuous arousal/valence prediction, evaluated with the Concordance
Correlation Coefficient.

The pipeline: token-timestamped feature tracks are averaged onto fixed
250 ms frames, concatenated across modalities, and fed to a projection +
single-layer LSTM + two-layer regression head trained with per-step MSE.

``__all__`` is the public API: the dataset tree, the in-memory video, the
training run and its checkpoint, the model and its scoring, and the error
classes. Every other name is internal and is imported from its own module.
"""

from .errors import (
    ConfigError,
    CorruptCheckpointError,
    DegenerateInputError,
    DimMismatchError,
    EmptyDatasetError,
    EmptySequenceError,
    EmptyTrackError,
    InputError,
    LengthMismatchError,
    MalformedRowError,
    NonFiniteOutputError,
    SeqfuseError,
    ShapeMismatchError,
    TargetMissingError,
    TraceMismatchError,
    VersionMismatchError,
)
from .featureio import (
    Manifest,
    VideoEntry,
    align_dataset,
    load_manifest,
    save_manifest,
    write_dataset,
)
from .metrics import CccReport, ccc, evaluate
from .nn import Model, predict
from .synth import synth_generate
from .tracks import DEFAULT_FRAME_LEN_MS, FrameTrack, LabeledSequence
from .training import (
    Checkpoint,
    EpochStats,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "SeqfuseError", "InputError", "ConfigError", "CorruptCheckpointError",
    "DegenerateInputError", "DimMismatchError", "EmptyDatasetError", "EmptySequenceError",
    "EmptyTrackError", "LengthMismatchError", "MalformedRowError", "NonFiniteOutputError",
    "ShapeMismatchError", "TargetMissingError", "TraceMismatchError", "VersionMismatchError",
    # the dataset tree
    "Manifest", "VideoEntry", "load_manifest", "save_manifest", "write_dataset", "align_dataset",
    # one video in memory
    "LabeledSequence", "FrameTrack", "DEFAULT_FRAME_LEN_MS", "synth_generate",
    # a training run and its checkpoint
    "TrainConfig", "train", "EpochStats", "Checkpoint", "load_checkpoint", "save_checkpoint",
    # the model and its scores
    "Model", "predict", "evaluate", "ccc", "CccReport", "__version__",
]
