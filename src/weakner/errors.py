"""Exception types raised by the toolkit.

Everything derives from :class:`WeaknerError` so callers (notably the CLI)
can distinguish data problems from genuine bugs.
"""

import numbers


class WeaknerError(Exception):
    """Base class for all toolkit errors. `field` names the setting at
    fault, or is a tuple naming the settings that are jointly at fault."""

    def __init__(self, *args, field=None):
        super().__init__(*args)
        self.field = field


class EmptySentence(WeaknerError):
    """Tokenization produced no tokens (empty or all-whitespace input)."""


class OverlappingSpans(WeaknerError):
    """Two entity spans share a token."""


class MalformedLine(WeaknerError):
    """A label file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class UnknownTag(WeaknerError):
    """A tag string is not part of the active tag set."""


class FractionOutOfRange(WeaknerError):
    """A split fraction must lie strictly between 0 and 1."""


class EmptyReferenceSet(WeaknerError):
    """A reference-set file contained no usable names."""


class LabelLengthMismatch(WeaknerError):
    """A labeling does not have one entry per token."""


class EmptyDataset(WeaknerError):
    """An operation that needs data received none."""


class ModelTagSetMismatch(WeaknerError):
    """Model tag set is incompatible with the data or matches given."""


class SpecInvalid(WeaknerError):
    """Synthetic-corpus parameters are out of range."""


class TrainingDiverged(WeaknerError):
    """Training left non-finite weights (the learning rate is too high)."""


def check_int(name, value, minimum, error=WeaknerError):
    """Raise error (a WeaknerError type) unless value is an integer (not a
    bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, not {value!r}", field=name)


def check_fraction(name, value):
    """Raise FractionOutOfRange unless 0 < value < 1."""
    if not 0.0 < value < 1.0:
        raise FractionOutOfRange(f"{name} must be in (0, 1), got {value}", field=name)
