"""Synthetic datasets whose labels can be learned from their features.

:func:`synth_generate` makes the videos in memory, the same bits for the
same seed; ``featureio.write_dataset`` writes them as a dataset tree, as the
``synth`` command does.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MalformedRowError
from .tracks import _INT64_MAX, DEFAULT_FRAME_LEN_MS, FrameTrack, LabeledSequence
from .util import check_int, seeded_rng

TARGETS = ("arousal", "valence")


def _smooth_labels(rng: np.random.Generator, t: int) -> np.ndarray:
    # Sum of three low-frequency sinusoids; amplitude budget < 1 keeps the
    # clip a no-op in practice, so labels rarely saturate at the range edges.
    freqs = rng.uniform(0.5, 3.0, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    amps = rng.uniform(0.1, 0.3, size=3)
    u = np.arange(t, dtype=np.float64) / t
    y = np.zeros(t, dtype=np.float64)
    for a, f, p in zip(amps, freqs, phases):
        y += a * np.sin(2.0 * np.pi * f * u + p)
    return np.clip(y, -1.0, 1.0)


def synth_generate(
    seed: int,
    n_videos: int,
    t_range: tuple[int, int],
    dims: list[int],
    snr: float,
) -> list[LabeledSequence]:
    """Deterministic synthetic dataset with labels learnable from features.

    Each video gets smooth arousal/valence label curves (clipped sums of
    low-frequency sinusoids) and one frame-aligned track per entry of
    ``dims``. Track ``k`` is a fixed linear image of the stacked label pair,
    shared across videos, plus Gaussian noise scaled by ``1/snr``. The same
    seed yields bitwise-identical output. Both ends of ``t_range`` (at
    least 2, the high end at least the low), ``n_videos`` (at least 1) and
    each entry of the nonempty ``dims`` (at least 1) follow
    :func:`seqfuse.util.check_int` with ConfigError. Tracks too wide or a
    video too long to allocate raise ConfigError naming ``dims`` or
    ``t_range``, and so does an ``snr`` so small that the noise is not
    finite, naming it.
    """
    lo = check_int(t_range[0], "t_range low end", 2, ConfigError)
    hi = check_int(t_range[1], "t_range high end", lo, ConfigError)
    if (hi - 1) * DEFAULT_FRAME_LEN_MS > _INT64_MAX:
        raise ConfigError(f"t_range ({lo}, {hi}) puts frame_ms past the int64 range")
    n_videos = check_int(n_videos, "n_videos", 1, ConfigError)
    if not dims:
        raise ConfigError("dims must be a nonempty list")
    dims = [check_int(dim, f"dims[{k}]", 1, ConfigError) for k, dim in enumerate(dims)]
    if not snr > 0:  # also NaN
        raise ConfigError(f"snr must be positive, got {snr}")

    rng = seeded_rng(seed)
    try:
        mixers = [rng.normal(size=(dim, len(TARGETS))) for dim in dims]
    except (MemoryError, ValueError) as exc:  # ValueError: a size past numpy's index range
        raise ConfigError(f"dims {dims}: the tracks do not fit in memory") from exc
    videos = []
    try:
        for v in range(n_videos):
            t = int(rng.integers(lo, hi + 1))
            labels = {target: _smooth_labels(rng, t) for target in TARGETS}
            stacked = np.stack([labels[target] for target in TARGETS], axis=1)
            tracks = []
            for k, dim in enumerate(dims):
                with np.errstate(over="ignore"):
                    noise = rng.normal(size=(t, dim)) / snr
                frames = stacked @ mixers[k].T + noise
                try:
                    tracks.append(FrameTrack(f"track{k}", frames))
                except MalformedRowError:  # the labels' image is finite; the noise is not
                    raise ConfigError(
                        f"snr {snr} is too small: the noise it scales is not finite"
                    ) from None
            videos.append(LabeledSequence(f"video{v:03d}", tracks, labels))
    except MemoryError as exc:
        raise ConfigError(
            f"t_range ({lo}, {hi}): a video of {t} frames does not fit in memory"
        ) from exc
    return videos
