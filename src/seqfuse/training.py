"""Training loop: per-step MSE, sequence chunking, Adam, model selection.

Checkpoint file format (version 1)
----------------------------------
``SQF1`` magic, a little-endian uint32 header length, a UTF-8 JSON header
(config, the model dims that the config and track dims give, track order
with per-track dims, best devel CCC, best epoch, and per-parameter name,
shape and byte offsets), then the model's flat
parameter vector as raw little-endian float64, laid out by
:func:`seqfuse.nn.param_layout` (projection W, projection b, lstm input W,
lstm recurrent W, lstm b, head_hidden W, head_hidden b, head_out W,
head_out b). Save/load round-trips parameters bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CorruptCheckpointError,
    DegenerateInputError,
    EmptyDatasetError,
    EmptySequenceError,
    LengthMismatchError,
    NonFiniteOutputError,
    ShapeMismatchError,
    VersionMismatchError,
)
from .featureio import check_name
from .metrics import evaluate
from .nn import Model, ParamSpec, backward, forward, init_model, param_layout
from .tracks import LabeledSequence, check_same_tracks, target_labels
from .util import _UINT64_MASK, check_int, fmt_float, read_input, seeded_rng, write_atomic

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"SQF1"
CHECKPOINT_VERSION = 1

# Salts separating the training loop's derived random streams.
_SHUFFLE_SALT = 1
_MASK_SALT = 2


def _is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


@dataclass
class TrainConfig:
    """All run hyperparameters; one model per target.

    The fields without a default are the ones a run config must give.
    ``target`` follows :func:`seqfuse.featureio.check_name`, and
    ``track_order`` is a nonempty list of distinct track names. Each int
    field follows :func:`seqfuse.util.check_int`: ``epochs`` at least 0,
    ``seed`` any integer, the others at least 1. A bad value raises
    ConfigError naming its field.
    """

    target: str = field(metadata={"help": "label target name"})
    embed_dim: int = field(metadata={"help": "projection width"})
    hidden_units: int = field(metadata={"help": "LSTM width"})
    head_hidden: int = field(metadata={"help": "head hidden width"})
    epochs: int = field(metadata={"help": "max training epochs"})
    seed: int = field(metadata={"help": "run seed"})
    track_order: list[str] = field(metadata={"help": "comma-separated fusion order"})
    learning_rate: float = field(default=1e-3, metadata={"help": "Adam step size"})
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    dropout_rate: float = field(default=0.5, metadata={"help": "dropout rate"})
    max_time_step: int = field(default=100, metadata={"help": "chunk length"})
    patience: int = field(default=10, metadata={"help": "early-stop patience"})

    def __post_init__(self):
        check_name(self.target, "target")
        least = {"epochs": 0, "seed": None}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                setattr(self, f.name, check_int(value, f.name, least.get(f.name, 1), ConfigError))
            elif f.type == "float" and not _is_finite_number(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("adam_beta1", "adam_beta2", "dropout_rate"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be positive")
        names = self.track_order
        if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
            raise ConfigError(f"track_order must be a nonempty list of names, got {names!r}")
        seen = set()
        for name in names:
            if name in seen:
                raise ConfigError(f"track_order names track {name!r} twice")
            seen.add(name)


@dataclass(eq=False)
class AdamState:
    """First/second moment vectors in the layout of ``Model.params``, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam_state(model: Model) -> AdamState:
    return AdamState(np.zeros_like(model.params), np.zeros_like(model.params), 0)


def mse_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean over timesteps of the squared per-step error."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise LengthMismatchError(
            f"predictions {predictions.shape} vs labels {labels.shape}"
        )
    if predictions.size == 0:
        raise EmptySequenceError("mse_loss needs at least one step")
    diff = labels - predictions
    return float(np.mean(diff * diff))


def chunk(
    sequence: LabeledSequence, max_time_step: int, target: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split one sequence into consecutive (features, labels) windows.

    Non-overlapping windows of ``max_time_step`` rows, last one possibly
    shorter, in temporal order; concatenating them reconstructs the sequence.
    ``max_time_step`` follows :func:`seqfuse.util.check_int` with least 1
    (ConfigError).
    """
    max_time_step = check_int(max_time_step, "max_time_step", 1, ConfigError)
    labels = target_labels(sequence.video_id, sequence.labels, target)
    return [
        (sequence.data[lo : lo + max_time_step], labels[lo : lo + max_time_step])
        for lo in range(0, sequence.n_frames, max_time_step)
    ]


def adam_step(
    model: Model, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> tuple[Model, AdamState]:
    """One bias-corrected Adam update over the flat parameter vector.

    ``grads`` is a vector like the one :func:`seqfuse.nn.backward` returns.
    The inputs are left untouched; returns a new model and state.
    """
    b1, b2, eps, lr = (
        config.adam_beta1,
        config.adam_beta2,
        config.adam_eps,
        config.learning_rate,
    )
    shape = model.params.shape
    if grads.shape != shape or state.m.shape != shape or state.v.shape != shape:
        raise ShapeMismatchError(
            f"gradient {grads.shape} / state {state.m.shape} do not match "
            f"parameters {shape}"
        )
    step = state.step + 1
    # The textbook update, in this operation order, written into four buffers:
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    # params - lr*(m/(1-b1**step)) / (sqrt(v/(1-b2**step)) + eps).
    tmp = np.multiply(grads, 1.0 - b1)
    m = np.multiply(state.m, b1)
    m += tmp
    np.multiply(grads, 1.0 - b2, out=tmp)
    tmp *= grads
    v = np.multiply(state.v, b2)
    v += tmp
    params = np.divide(v, 1.0 - b2**step)
    np.sqrt(params, out=params)
    params += eps
    np.divide(m, 1.0 - b1**step, out=tmp)
    tmp *= lr
    tmp /= params
    np.subtract(model.params, tmp, out=params)
    return Model(model.dims, params), AdamState(m, v, step)


@dataclass(eq=False)
class Checkpoint:
    """Best model parameters plus everything needed to rerun inference."""

    model: Model
    config: TrainConfig
    track_dims: tuple[tuple[str, int], ...]
    best_ccc: float
    best_epoch: int


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    devel_ccc: float


def model_dims(config: TrainConfig, track_dims: tuple[tuple[str, int], ...]) -> dict[str, int]:
    """The model's dims: D the sum of the track dims, e, h and m from ``config``."""
    return {"D": sum(dim for _, dim in track_dims), "e": config.embed_dim,
            "h": config.hidden_units, "m": config.head_hidden}


def _mask_seed(seed: int, epoch: int, chunk_index: int) -> int:
    ss = np.random.SeedSequence([seed & _UINT64_MASK, _MASK_SALT, epoch, chunk_index])
    return int(ss.generate_state(1)[0])


# A diverging run ends in ConfigError below; numpy's overflow warnings on the way add nothing.
@np.errstate(over="ignore", invalid="ignore")
def train(
    train_set: list[LabeledSequence],
    devel_set: list[LabeledSequence],
    config: TrainConfig,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Full training run with validation-CCC model selection.

    Each epoch shuffles videos with a generator seeded from ``config.seed``,
    splits every sequence at ``max_time_step`` (LSTM state resets at chunk
    boundaries), and applies one Adam update per chunk with a fresh dropout
    mask seed derived from (seed, epoch, chunk index). After each epoch the
    devel set is scored with concatenated CCC in evaluation mode; the best
    epoch's parameters are kept. Training stops early after ``patience``
    epochs without improvement. The fresh (epoch 0) model is the initial
    best candidate, so ``epochs=0`` returns it with an empty history.
    Every sequence, train then devel, must have labels for ``config.target``
    (TargetMissingError) and the first train sequence's tracks and dims
    (DimMismatchError), and those tracks must be ``config.track_order``'s
    (ConfigError).
    A model too large to allocate raises ConfigError naming its dims.
    """
    if not train_set or not devel_set:
        raise EmptyDatasetError("train and devel sets must be nonempty")
    reference = train_set[0]
    for seq in [*train_set, *devel_set]:
        target_labels(seq.video_id, seq.labels, config.target)
        check_same_tracks(seq, reference.track_dims, reference.video_id)
    track_dims = reference.track_dims
    _check_track_order(config, track_dims, f"train video {reference.video_id!r}", ConfigError)

    dims = model_dims(config, track_dims)
    try:
        model = init_model(config.seed, dims)
        state = init_adam_state(model)
    except (MemoryError, ValueError) as exc:  # ValueError: a size past numpy's index range
        shown = ", ".join(f"{k}={v}" for k, v in dims.items())
        raise ConfigError(f"model dims {shown} do not fit in memory") from exc
    shuffle_rng = seeded_rng(config.seed, _SHUFFLE_SALT)
    best_model, best_epoch, bad_epochs = model, 0, 0
    history: list[EpochStats] = []

    for epoch in range(config.epochs + 1):
        losses = []
        if epoch > 0:  # epoch 0 only scores the fresh model
            chunk_index = 0
            for vi in shuffle_rng.permutation(len(train_set)):
                seq = train_set[int(vi)]
                for features, labels in chunk(seq, config.max_time_step, config.target):
                    trace = forward(
                        model,
                        features,
                        dropout_rate=config.dropout_rate,
                        mask_seed=_mask_seed(config.seed, epoch, chunk_index),
                    )
                    losses.append(mse_loss(trace.predictions, labels))
                    if not math.isfinite(losses[-1]):
                        raise ConfigError(
                            f"training diverged: non-finite loss at epoch {epoch}, "
                            f"chunk {chunk_index}"
                        )
                    grads = backward(model, trace, labels)
                    model, state = adam_step(model, grads, state, config)
                    chunk_index += 1
        try:
            devel_ccc = evaluate(model, devel_set, config.target).concatenated_ccc
        except DegenerateInputError:
            logger.warning("devel CCC undefined (constant equal sequences); using 0.0")
            devel_ccc = 0.0
        except NonFiniteOutputError as exc:
            raise ConfigError(
                f"training diverged: non-finite devel CCC at epoch {epoch}"
            ) from exc
        if epoch == 0:
            best_ccc = devel_ccc
            continue
        history.append(EpochStats(epoch, float(np.mean(losses)), devel_ccc))
        if devel_ccc > best_ccc:
            best_ccc = devel_ccc
            best_model = model
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                logger.info(
                    "early stop at epoch %d (no improvement for %d epochs)",
                    epoch,
                    config.patience,
                )
                break

    ckpt = Checkpoint(best_model, config, track_dims, best_ccc, best_epoch)
    return ckpt, history


def write_history_csv(history: list[EpochStats], path: str | Path) -> None:
    rows = ["epoch,train_loss,devel_ccc"]
    rows += [
        f"{st.epoch},{fmt_float(st.train_loss)},{fmt_float(st.devel_ccc)}"
        for st in history
    ]
    write_atomic(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------


def _param_specs(layout: tuple[ParamSpec, ...]) -> list[dict]:
    """Header entries for the payload blocks: name, shape, byte offset, size."""
    return [
        {
            "name": spec.name,
            "shape": list(spec.shape),
            "offset": 8 * spec.start,
            "nbytes": 8 * spec.size,
        }
        for spec in layout
    ]


def _header_bytes(ckpt: Checkpoint) -> bytes:
    """The JSON header of ``ckpt``: the one header that saves and loads it."""
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "dims": ckpt.model.dims,
        "track_dims": [[name, dim] for name, dim in ckpt.track_dims],
        "best_ccc": ckpt.best_ccc,
        "best_epoch": ckpt.best_epoch,
        "params": _param_specs(ckpt.model.layout),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _check_track_order(
    config: TrainConfig, track_dims: tuple[tuple[str, int], ...], where: str | Path,
    error: type[Exception],
) -> None:
    """Raise ``error`` unless ``track_dims`` name ``config.track_order``'s tracks, in order."""
    names = [name for name, _ in track_dims]
    if names != list(config.track_order):
        raise error(
            f"{where}: track_dims name tracks {names}, but config.track_order is "
            f"{list(config.track_order)}"
        )


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the versioned binary checkpoint described in the module docstring.

    A checkpoint that :func:`load_checkpoint` would refuse for its tracks or
    its model's dims raises before anything is written: ConfigError when
    its track dims do not name the tracks of ``config.track_order``, and
    ShapeMismatchError when the model's dims are not the ones that
    :func:`model_dims` gives for its config and track dims.
    """
    _check_track_order(ckpt.config, ckpt.track_dims, path, ConfigError)
    dims = model_dims(ckpt.config, ckpt.track_dims)
    if ckpt.model.dims != dims:
        raise ShapeMismatchError(
            f"{path}: model dims {ckpt.model.dims}, but its config and track dims give {dims}"
        )
    header_bytes = _header_bytes(ckpt)
    write_atomic(
        path,
        CHECKPOINT_MAGIC
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + ckpt.model.params.astype("<f8", copy=False).tobytes(),
    )


def load_checkpoint(path: str | Path, data: bytes | None = None) -> Checkpoint:
    """Read and validate a checkpoint; inverse of :func:`save_checkpoint`.

    The model's dims are not read from the header but derived from its
    config and track dims (:func:`model_dims`). Once its fields are checked,
    the header must be byte for byte the one that :func:`save_checkpoint`
    writes for them, so stored ``dims`` other than the derived ones, a
    repeated, missing or unknown key, another layout or another spacing is
    rejected. ``data``, when given, holds the file's bytes already read, and
    those are loaded instead of reading ``path``.
    """
    data = read_input(path, "checkpoint") if data is None else data
    if len(data) < 8:
        raise CorruptCheckpointError(f"{path}: file too short")
    magic = data[:4]
    if magic != CHECKPOINT_MAGIC:
        if magic[:3] == CHECKPOINT_MAGIC[:3]:
            raise VersionMismatchError(
                f"{path}: unsupported format tag {magic!r}, expected "
                f"{CHECKPOINT_MAGIC!r}"
            )
        raise CorruptCheckpointError(f"{path}: bad magic {magic!r}")
    (header_len,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + header_len:
        raise CorruptCheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(data[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptCheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: version {header.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )

    payload = data[8 + header_len :]
    try:
        config = TrainConfig(**header["config"])
        track_dims = tuple((n, d) for n, d in header["track_dims"])
        best_ccc = header["best_ccc"]
        best_epoch = header["best_epoch"]
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CorruptCheckpointError(f"{path}: bad header fields: {exc}") from exc
    if type(best_ccc) is not float or not math.isfinite(best_ccc):
        raise CorruptCheckpointError(
            f"{path}: best_ccc must be a finite number, got {best_ccc!r}"
        )
    check_int(best_epoch, f"{path}: best_epoch", 0, CorruptCheckpointError)
    for name, dim in track_dims:
        check_int(dim, f"{path}: track {name!r} dim", 1, CorruptCheckpointError)
    _check_track_order(config, track_dims, path, CorruptCheckpointError)
    dims = model_dims(config, track_dims)
    layout = param_layout(dims)
    expected = 8 * (layout[-1].start + layout[-1].size)
    if len(payload) != expected:
        raise CorruptCheckpointError(
            f"{path}: payload has {len(payload)} bytes, header describes {expected}"
        )
    params = np.frombuffer(payload, dtype="<f8").copy()
    ckpt = Checkpoint(Model(dims, params), config, track_dims, best_ccc, best_epoch)
    if data[8 : 8 + header_len] != _header_bytes(ckpt):
        raise CorruptCheckpointError(
            f"{path}: header differs from the one its fields are saved with"
        )
    for spec in layout:
        if not np.isfinite(params[spec.start : spec.start + spec.size]).all():
            raise CorruptCheckpointError(f"{path}: parameter {spec.name!r} is not finite")
    return ckpt
