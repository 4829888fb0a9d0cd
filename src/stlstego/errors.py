class StlStegoError(Exception):
    """Base class for every error raised by this package."""


class StlParseError(StlStegoError):
    """Malformed STL input. Carries a 1-based line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnrecognizedFormatError(StlStegoError):
    """Input is neither ASCII text that opens with the `solid` line nor a
    binary STL whose length is 84 + 50 * its facet count."""


class CapacityExceededError(StlStegoError):
    """Payload does not fit in the selected channel of the carrier."""


class ChannelUnavailableError(StlStegoError):
    """Channel does not exist for the carrier's source format."""
