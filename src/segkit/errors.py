"""Exception types shared across the toolkit.

Every failure the toolkit detects raises a subclass of ``SegkitError``;
its ``exit_code``, 2 unless the class sets another, is the code ``cli.main``
exits with.  ``ConfigInvalidError`` is also a ``ValueError``.
"""


class SegkitError(Exception):
    exit_code = 2


class ShapeMismatchError(SegkitError):
    pass


class EmptyShapeError(SegkitError):
    pass


class AxisOutOfRangeError(SegkitError):
    pass


class ClassOutOfRangeError(SegkitError):
    pass


class NonScalarLossError(SegkitError):
    pass


class NegativeOutputExtentError(SegkitError):
    pass


class OddHeadDimError(SegkitError):
    pass


class DimNotDivisibleBy4Error(SegkitError):
    pass


class NonFiniteOffsetError(SegkitError):
    pass


class InputRangeError(SegkitError):
    pass


class NonSquareError(SegkitError):
    pass


class EmptyListError(SegkitError):
    pass


class UnscoredRecordError(SegkitError):
    pass


class AllClassesExcludedError(SegkitError):
    pass


class MissingRobotError(SegkitError):
    exit_code = 5


class BadMagicError(SegkitError):
    exit_code = 3


class TruncatedError(SegkitError):
    exit_code = 3


class MaxvalUnsupportedError(SegkitError):
    exit_code = 3


class BadFieldCountError(SegkitError):
    exit_code = 3


class UnknownSplitError(SegkitError):
    exit_code = 3


class DuplicateSampleIdError(SegkitError):
    exit_code = 3


class ConfigInvalidError(SegkitError, ValueError):
    pass


class EmptyDatasetError(SegkitError):
    pass


class TrainingDivergedError(SegkitError):
    """A non-finite training loss or gradient; ``samples`` are the failing
    batch's positions in the list of samples the loop was given."""

    exit_code = 4

    def __init__(self, message, samples=()):
        super().__init__(message)
        self.samples = list(samples)


class NoGradientError(SegkitError):
    pass
