import inspect
import pickle
import re

import pytest

from seqfuse import ConfigError, MalformedRowError
from seqfuse import errors
from seqfuse.util import read_input, read_input_text


@pytest.mark.parametrize(
    "data",
    [
        b"a,b\n1,2\n",
        b"\xef\xbb\xbfa,b\r\n1,2\r\n",
        b"a,b\r1,2\r\r\n\n\n",
        "é, x\n".encode("utf-8"),
        b"",
    ],
    ids=["lf", "bom-crlf", "cr-blank-lines", "non-ascii", "empty"],
)
def test_text_is_the_utf8_file_read_without_newline_translation(tmp_path, data):
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    with open(path, encoding="utf-8", newline="") as fh:
        assert read_input_text(path, "feature file") == fh.read()


@pytest.mark.parametrize(
    "data, lineno",
    [(b"\xff", 1), (b"a\r\nb\n\n\xe9c\n", 4), (b"a\rb\xc3", 1), (b"ok\nok\xf0\x9f\n", 2)],
)
def test_undecodable_byte_named_by_line(tmp_path, data, lineno):
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    with pytest.raises(MalformedRowError, match=rf"f\.csv:{lineno}: not UTF-8"):
        read_input_text(path, "feature file")


def test_missing_path_and_directory_are_config_errors(tmp_path):
    for path in (tmp_path / "gone.csv", tmp_path / "gone" / "f.csv", tmp_path):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            read_input(path, "feature file")
    (tmp_path / "file").write_text("x")
    with pytest.raises(ConfigError, match="not found"):
        read_input(tmp_path / "file" / "f.csv", "feature file")


def test_other_os_errors_propagate(tmp_path, monkeypatch):
    def denied(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(type(tmp_path), "read_bytes", denied)
    with pytest.raises(PermissionError):
        read_input(tmp_path / "f.csv", "checkpoint")


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


@pytest.mark.parametrize(
    "error",
    [cls("data/x.csv:3: bad row") for cls in ERROR_CLASSES]
    + [PermissionError(13, "Permission denied", "data/x.csv")],
    ids=[cls.__name__ for cls in ERROR_CLASSES] + ["PermissionError"],
)
def test_errors_cross_the_process_boundary_intact(error):
    """Worker processes send their errors back pickled; the CLI prints ``str`` of them."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
