"""Exception hierarchy shared across the package.

``InputError`` subclasses signal bad user-supplied data or configuration and
map to CLI exit code 2. That includes an input file that is missing, a
directory given as an input file, and one that is not UTF-8 text; every input
file is read through :func:`seqfuse.util.read_input`, which maps those cases.
Any other I/O problem, such as permission denied, surfaces as a plain
``OSError`` and maps to exit code 3; anything else is treated as an internal
invariant violation (exit code 4).
"""


class SeqfuseError(Exception):
    """Base class for all package-specific errors."""


class InputError(SeqfuseError):
    """Bad input data or configuration (CLI exit code 2)."""


class MalformedRowError(InputError):
    """A CSV row or header does not match the documented format."""


class DimMismatchError(InputError):
    """Vector/matrix dimensions disagree with what the consumer expects."""


class ShapeMismatchError(InputError):
    """Parameter-like tensors have inconsistent shapes."""


class EmptyTrackError(InputError):
    """A feature or label file contains no data rows."""


class LengthMismatchError(InputError):
    """Sequences that must share a length do not."""


class EmptySequenceError(InputError):
    """An operation requires at least one timestep."""


class EmptyDatasetError(InputError):
    """An operation requires at least one sequence."""


class TargetMissingError(InputError):
    """A sequence lacks labels for the configured target."""


class TraceMismatchError(InputError):
    """A forward trace does not belong to the given model/labels."""


class DegenerateInputError(InputError):
    """Both inputs are constant and equal; the metric is undefined."""


class ConfigError(InputError):
    """A run configuration is missing or inconsistent."""


class VersionMismatchError(InputError):
    """A checkpoint was written by an incompatible format version."""


class CorruptCheckpointError(InputError):
    """A checkpoint file is truncated or internally inconsistent."""
