"""seqfuse: frame-aligned multimodal fusion and LSTM regression for
continuous arousal/valence prediction, evaluated with the Concordance
Correlation Coefficient.

The pipeline: token-timestamped feature tracks are averaged onto fixed
250 ms frames, concatenated across modalities, and fed to a projection +
single-layer LSTM + two-layer regression head trained with per-step MSE.
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
from .align import align_tokens_to_frames
from .csvfiles import parse_feature_csv, write_feature_csv, write_label_csv
from .featureio import (
    Manifest,
    VideoEntry,
    align_dataset,
    load_manifest,
    save_manifest,
    write_dataset,
)
from .metrics import CccReport, ccc, evaluate
from .nn import ForwardTrace, Model, backward, forward, init_model, predict
from .synth import synth_generate
from .tracks import (
    DEFAULT_FRAME_LEN_MS,
    FrameTrack,
    LabeledSequence,
    TokenFeature,
    TokenTrack,
    fuse,
)
from .training import (
    AdamState,
    Checkpoint,
    EpochStats,
    TrainConfig,
    adam_step,
    chunk,
    init_adam_state,
    load_checkpoint,
    mse_loss,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
