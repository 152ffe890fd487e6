"""Exception types shared across the toolkit.

Every failure the toolkit detects raises a subclass of ``SegkitError``;
``cli.main`` maps the class of the error to the process exit code.
"""


class SegkitError(Exception):
    pass


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
    pass


class BadMagicError(SegkitError):
    pass


class TruncatedError(SegkitError):
    pass


class MaxvalUnsupportedError(SegkitError):
    pass


class BadFieldCountError(SegkitError):
    pass


class UnknownSplitError(SegkitError):
    pass


class ConfigInvalidError(SegkitError):
    pass


class EmptyDatasetError(SegkitError):
    pass


class TrainingDivergedError(SegkitError):
    """A non-finite training loss; ``samples`` are the failing batch's
    positions in the list of samples the loop was given."""

    def __init__(self, message, samples=()):
        super().__init__(message)
        self.samples = list(samples)


class NoGradientError(SegkitError):
    pass
