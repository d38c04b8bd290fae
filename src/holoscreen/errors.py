"""Shared exception types."""


class HoloscreenError(Exception):
    """Base class for package-specific errors."""


class CapExceeded(HoloscreenError):
    """An input is larger than the configured size cap for an operation."""


class CorpusError(HoloscreenError):
    """A corpus file or manifest failed to parse or validate."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = "%s: " % (path,)
            if line is not None:
                where = "%s:%d: " % (path, line)
        super().__init__(where + message)
