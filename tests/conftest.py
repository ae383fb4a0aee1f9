import builtins
import io

import numpy as np
import pytest

from seqfuse import Model, TrainConfig, fuse, init_model, synth_generate
from seqfuse.cli import main as cli_main


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def tiny_model():
    return init_model(0, {"D": 3, "e": 3, "h": 4, "m": 3})


def make_fused_split(seed=3, n_train=8, n_devel=2, t_range=(60, 100), dims=(4, 6), snr=100.0):
    videos = synth_generate(seed, n_train + n_devel, t_range, list(dims), snr)
    fused = [fuse(v.tracks, v.labels, video_id=v.video_id) for v in videos]
    return fused[:n_train], fused[n_train:]


def small_train_config(**overrides):
    base = dict(
        target="arousal",
        embed_dim=4,
        hidden_units=5,
        head_hidden=3,
        epochs=2,
        seed=1,
        track_order=["track0", "track1"],
        dropout_rate=0.5,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture
def fused_split():
    return make_fused_split(n_train=3, n_devel=2, t_range=(20, 40))


def zero_model(D=3, e=3, h=4, m=3):
    return Model({"D": D, "e": e, "h": h, "m": m})


def assert_models_equal(a, b):
    assert a.dims == b.dims
    for name, p in a.tensors.items():
        assert np.array_equal(p, b.tensors[name]), f"parameter {name} differs"


def fail_writes_halfway(monkeypatch):
    """Make every file opened for writing fail after half of its first write."""
    real_open = builtins.open

    class HalfWriter:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def __getattr__(self, name):
            return getattr(self._fh, name)

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if any(c in mode for c in "wax+") else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
