"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates a documented precondition, or a channel
    file cannot be read into a valid model; the message names the JSON path of
    the offending element, so that a file can be fixed without guesswork."""
