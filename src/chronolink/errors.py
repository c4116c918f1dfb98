"""Exception taxonomy shared by all chronolink modules.

``cli.main`` maps each of the five base categories below (ConfigError,
DataError, ProtocolError, IntegrityError and FetchError) onto its own exit
code, ``cli.EXIT_CONFIG`` to ``cli.EXIT_FETCH``, so new error types should
subclass one of them.
"""


class ChronolinkError(Exception):
    """Base class for all errors raised by this package; the message starts with
    the path (or flag) and the 1-based line number, when given."""

    def __init__(self, message, line_number=None, path=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path} {message}"
        super().__init__(message)
        self.line_number = line_number
        self.path = path


class ConfigError(ChronolinkError):
    """Invalid configuration: bad flag values, malformed config files, empty grids."""


class DataError(ChronolinkError):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""


class SchemaError(DataError):
    """Edge-list schema violation (wrong arity, bad column spec)."""


class SplitError(DataError):
    """A chronological split could not produce three non-empty parts."""


class ProtocolError(ChronolinkError):
    """Evaluation-protocol violation: missing negative records, causality breaches."""


class IntegrityError(ChronolinkError):
    """Checksum or integrity failure on fetched or stored artifacts."""


class FormatError(IntegrityError):
    """A serialized artifact has an unrecognized magic number or version."""


class CorruptionError(IntegrityError):
    """A serialized artifact is truncated or fails its checksum."""


class FetchError(ChronolinkError):
    """A network fetch failed; retrying may succeed."""
