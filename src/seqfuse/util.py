"""Small shared helpers: seeded RNG construction, the one integer rule,
exact float text output, atomic file writes, the one reader of
user-supplied input files, the count of usable CPUs and the one stat of a
file."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .errors import ConfigError, MalformedRowError

_UINT64_MASK = (1 << 64) - 1


def seeded_rng(*entropy: int) -> np.random.Generator:
    """Deterministic generator from one or more integer seed words.

    Negative seeds are allowed; each word is reduced modulo 2**64 so the
    combined entropy is well defined and reproducible across platforms.
    """
    words = [int(e) & _UINT64_MASK for e in entropy]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def check_int(value, what: str, least: int | None, error: type[Exception]) -> int:
    """``value`` as a Python int: an int or numpy integer, not a bool, and >= ``least``.

    ``least`` None takes any integer. Anything else raises ``error`` with
    ``"<what> must be an integer >= <least>, got <value!r>"``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if least is None or value >= least:
            return int(value)
    bound = "" if least is None else f" >= {least}"
    raise error(f"{what} must be an integer{bound}, got {value!r}")


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


def read_input(path: str | Path, what: str) -> bytes:
    """Every byte of the user-supplied file ``path``; ``what`` names it in errors.

    Every file the package reads comes through here. A missing path, a
    directory given as the file, or a path holding a NUL byte raises
    ConfigError naming the path (CLI exit 2); any other OSError, such as
    permission denied, propagates (exit 3).
    """
    try:
        return Path(path).read_bytes()
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except IsADirectoryError as exc:
        raise ConfigError(f"{what} is a directory: {path}") from exc
    except ValueError as exc:  # the OS cannot take a path holding NUL
        raise ConfigError(f"{what} path holds a NUL byte: {str(path)!r}") from exc


def read_input_text(path: str | Path, what: str, data: bytes | None = None) -> str:
    """:func:`read_input` decoded as strict UTF-8, line endings untouched.

    ``data``, when given, is the file's bytes as ``read_input`` already
    returned them, and the file is not read again. Bytes that are not UTF-8
    raise MalformedRowError naming ``path:lineno`` of the first bad byte.
    """
    if data is None:
        data = read_input(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason})"
        ) from exc


def read_json_object(path: str | Path, what: str, data: bytes | None = None) -> dict:
    """The JSON object held in the UTF-8 file ``path``; anything else is a ConfigError.

    So is a key given twice in one object, at any depth. ``data``, when
    given, is the file's bytes already read (see :func:`read_input_text`).
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"{path}: key {key!r} is given twice in one object")
            seen.add(key)
        return dict(pairs)

    try:
        value = json.loads(read_input_text(path, what, data), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    return value


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _stat(path: str | Path) -> os.stat_result | None:
    """``os.stat`` of ``path``, links followed: the one place a file is stat'ed.

    Never raises: a path that is missing or that the OS cannot take gives None.
    """
    try:
        return os.stat(path)
    except (OSError, ValueError):
        return None


def _regular_file(path: str | Path) -> os.stat_result | None:
    """:func:`_stat` of the regular file at ``path``; None for anything else."""
    info = _stat(path)
    return info if info is not None and stat.S_ISREG(info.st_mode) else None
