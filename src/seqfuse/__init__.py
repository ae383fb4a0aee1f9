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
    SeqfuseError,
    ShapeMismatchError,
    TargetMissingError,
    TraceMismatchError,
    VersionMismatchError,
)
from .featureio import (
    DEFAULT_FRAME_LEN_MS,
    FrameTrack,
    LabeledSequence,
    Manifest,
    TokenFeature,
    TokenTrack,
    VideoEntry,
    align_dataset,
    align_tokens_to_frames,
    fuse,
    load_manifest,
    parse_feature_csv,
    save_manifest,
    synth_generate,
    write_dataset,
    write_feature_csv,
    write_label_csv,
)
from .metrics import CccReport, ccc, evaluate
from .nn import ForwardTrace, Model, backward, forward, init_model, predict
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
