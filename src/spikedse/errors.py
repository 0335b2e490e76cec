"""Typed exceptions shared by all spikedse modules.

Every domain failure raises a subclass of SpikeDseError so callers (and
the CLI) can distinguish domain errors from genuine bugs.
"""

import csv
from contextlib import contextmanager


class SpikeDseError(Exception):
    """Base class for all domain errors raised by this package."""

    @classmethod
    @contextmanager
    def guard(cls, source: str):
        """Re-raise KeyError, TypeError, ValueError and csv.Error in the block
        as cls."""
        try:
            yield
        except KeyError as exc:
            raise cls(f"{source}: missing key {exc}") from exc
        except (TypeError, ValueError, csv.Error) as exc:
            raise cls(f"{source}: {exc}") from exc


def _check_keys(raw: dict, known: set[str]) -> None:
    """Raise ValueError naming the keys of raw outside known: a misspelt key
    would otherwise be dropped and its setting silently keep its default."""
    if raw.keys() - known:
        raise ValueError(f"unknown keys {sorted(raw.keys() - known)}, "
                         f"expected some of {sorted(known)}")


class ConfigError(SpikeDseError):
    """An input file is bad: a JSON config, grid, constraints, constants, table
    or manifest, or a DSE report CSV read back by parse_report."""


class CheckpointError(SpikeDseError):
    """A checkpoint file is truncated, malformed or disagrees with its header."""


# --- event stream parsing / dataset handling -------------------------------

class MalformedHeader(SpikeDseError):
    """A '%' header line could not be decoded or carries an invalid value."""


class TruncatedRecord(SpikeDseError):
    """The binary event section is not a whole number of 8-byte records."""


class CoordinateOutOfRange(SpikeDseError):
    """An event lies outside the declared sensor bounds or sample duration."""


class UnsortedEvents(SpikeDseError):
    """Event timestamps are not non-decreasing."""


class BadRow(SpikeDseError):
    """A CSV row is malformed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WindowTooLarge(SpikeDseError):
    """Requested attention window does not fit inside the sensor."""


class MissingManifest(SpikeDseError):
    """Dataset directory has no manifest.json."""


class UnreadableFile(SpikeDseError):
    """A file referenced by the manifest is missing or unparseable."""


# --- network execution ------------------------------------------------------

class UnsupportedWindow(SpikeDseError):
    """Strict-mode network builder only accepts the reference window sizes."""


class ShapeMismatch(SpikeDseError):
    """Tensor shape does not match what the layer or network expects."""


# --- training ----------------------------------------------------------------

class EmptyDataset(SpikeDseError):
    """Training or evaluation was given no samples."""


# --- design space exploration -------------------------------------------------

class EmptyAxis(SpikeDseError):
    """A DSE grid axis has no values."""


class MissingBaseline(SpikeDseError):
    """No trained full-precision weights exist for a required (T, W) pair."""


class NoFeasiblePoint(SpikeDseError):
    """Constraint filtering left no DSE point to select from."""
