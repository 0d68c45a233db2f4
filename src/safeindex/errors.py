"""Exception hierarchy shared across the package, and the two checks that
are every setting's type rule: a library setting that fails one is a ValueError."""


class SafeIndexError(Exception):
    """Base class for all errors raised by this package."""


class LexiconError(SafeIndexError):
    """Bad term list: blank term or empty list."""


class MalformedUrlError(SafeIndexError):
    """URL with no recognizable host."""


class ConfigError(SafeIndexError):
    """Missing or inconsistent configuration (lexicon set, manifests, paths)."""


class TrainingError(SafeIndexError):
    """Training cannot proceed (e.g. single-class input)."""


def check_count(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """`value` if it is exactly an int (a bool or a numpy integer is not)
    within the bounds given, else ValueError; a `high` needs a `low`."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def check_number(name: str, value) -> int | float:
    """`value` if it is exactly an int or a float (NaN and infinities pass;
    a bool or a numpy float does not), else ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value
