"""Small shared helpers: seeded RNG construction, exact float text output and
atomic file writes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

_UINT64_MASK = (1 << 64) - 1


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator from one or more integer seed words.

    Negative seeds are allowed; each word is reduced modulo 2**64 so the
    combined entropy is well defined and reproducible across platforms.
    """
    words = [int(e) & _UINT64_MASK for e in entropy]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def fmt_float(value: float) -> str:
    """Shortest decimal text that parses back to exactly the same float64."""
    return repr(float(value))


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write ``data`` (str is encoded as UTF-8) to ``path`` all or nothing.

    The bytes go to a temporary sibling that ``os.replace`` then moves over
    ``path``, so a reader sees the old file or the complete new one, never a
    partial write. If writing fails the sibling is removed and ``path`` is
    left as it was. No fsync is done: this guards against a failed or
    interrupted process, not against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
