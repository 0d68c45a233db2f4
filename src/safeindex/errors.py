"""Exception hierarchy shared across the package."""


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
