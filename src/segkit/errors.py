"""Exception types shared across the toolkit.

Every failure the toolkit detects raises ``SegkitError`` or one of its
subclasses; its ``exit_code`` is the code ``cli.main`` exits with.  A
subclass exists for each other exit code, and for each exit-2 error that
code catches by name to say where it came from.  ``ConfigInvalidError`` is
also a ``ValueError``.
"""


class SegkitError(Exception):
    exit_code = 2


class ShapeMismatchError(SegkitError):
    """A wrong rank, shape, extent or length."""


class ConfigInvalidError(SegkitError, ValueError):
    """A config value, option or input its checks refuse, an empty split included."""


class MalformedFileError(SegkitError):
    """A PNM, manifest or checkpoint file whose bytes or content cannot be read."""

    exit_code = 3


class TrainingDivergedError(SegkitError):
    """A non-finite training loss or gradient; ``samples`` are the failing
    batch's positions in the list of samples the loop was given."""

    exit_code = 4

    def __init__(self, message, samples=()):
        super().__init__(message)
        self.samples = list(samples)


class MissingRobotError(SegkitError):
    exit_code = 5
