"""The parse cache (sidecar) of a Feature CSV in a dataset tree.

``<csv path>.cols`` holds the columns that parsing the CSV gives, so that
reading it again costs no text parsing. It is a 40-byte header, all
little-endian::

    magic b"SQFCOLS1", int64 n, int64 dim, uint64 CSV byte length,
    uint32 zlib.crc32 of the CSV's bytes, uint32 zlib.crc32 of the payload

then the payload: ``start_ms`` as n int64, ``end_ms`` as n int64 and the
(n, dim) ``vectors`` row by row as float64. The CSV always wins: a sidecar
is used only when its magic, its length, the CSV's length and both checks
match the CSV's bytes as read and every vector value is finite; otherwise,
or when it is absent or cannot be read, the CSV is parsed, with the same
results and errors as if there were no sidecar. The checks guard against
stale and damaged files, not against a sidecar forged for its CSV. The
manifest does not list sidecars, and any Feature CSV may have one.
:mod:`seqfuse.featureio` is this format's one writer (``_write_video``) and
one reader (``read_feature_csv``), and looks for a sidecar beside every
Feature CSV it reads.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .util import read_input

SIDECAR_SUFFIX = ".cols"
_MAGIC = b"SQFCOLS1"
# magic, n, dim, CSV byte length, crc32 of the CSV, crc32 of the payload.
_SIDECAR_HEAD = struct.Struct("<8sqqQII")


def sidecar_path(csv_path: str | Path) -> Path:
    """``csv_path`` with ``.cols`` appended; defined for any path, even one that names no file."""
    return Path(f"{csv_path}{SIDECAR_SUFFIX}")


def sidecar_bytes(
    start_ms: np.ndarray, end_ms: np.ndarray, vectors: np.ndarray, csv: bytes
) -> bytearray:
    """The sidecar of the Feature CSV ``csv``, written from these n spans and (n, dim) vectors."""
    (n, dim), size = vectors.shape, _SIDECAR_HEAD.size
    out = bytearray(size + 8 * n * (2 + dim))
    spans = np.frombuffer(out, "<i8", 2 * n, size)
    spans[:n], spans[n:] = start_ms, end_ms
    np.frombuffer(out, "<f8", n * dim, size + 16 * n).reshape(n, dim)[:] = vectors
    payload_crc = zlib.crc32(memoryview(out)[size:])
    _SIDECAR_HEAD.pack_into(out, 0, _MAGIC, n, dim, len(csv), zlib.crc32(csv), payload_crc)
    return out


def read_sidecar(csv_path: Path, csv: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns cached beside ``csv_path`` if its sidecar matches ``csv``, the CSV's bytes.

    Returns writable int64 ``start_ms`` and ``end_ms`` and the (n, dim)
    float64 ``vectors``, as a parse does; None when the sidecar is absent,
    unreadable, does not match in magic, length or either check, or holds a
    value that is not finite, which no parse gives.
    """
    try:
        data = read_input(sidecar_path(csv_path), "feature parse cache")
    except (ConfigError, OSError):
        return None
    size = _SIDECAR_HEAD.size
    if len(data) < size:
        return None
    magic, n, dim, csv_len, csv_crc, payload_crc = _SIDECAR_HEAD.unpack_from(data)
    payload = memoryview(data)[size:]
    if (
        magic != _MAGIC
        or n < 1
        or dim < 1
        or len(payload) != 8 * n * (2 + dim)
        or csv_len != len(csv)
        or zlib.crc32(csv) != csv_crc
        or zlib.crc32(payload) != payload_crc
    ):
        return None
    columns = bytearray(payload)  # one copy, so the columns are writable
    spans = np.frombuffer(columns, "<i8", 2 * n).astype(np.int64, copy=False)
    vectors = np.frombuffer(columns, "<f8", n * dim, 16 * n).astype(np.float64, copy=False)
    if not np.isfinite(vectors).all():
        return None
    return spans[:n], spans[n:], vectors.reshape(n, dim)
