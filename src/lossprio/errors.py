"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid dimensions, fractions, rates, or other build parameters."""


class IngestionError(ValueError):
    """Malformed input file; message names the file and the failing byte offset."""

    def __init__(self, message: str, *, path, offset: int):
        super().__init__(f"{message} (file={path!s}, byte offset={offset})")
        self.path = path
        self.offset = offset

    def __reduce__(self):  # a worker's error is unpickled without calling __init__
        return ValueError.__new__, (type(self), *self.args), self.__dict__


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or gradient; carries the update index where it happened."""

    def __init__(self, message: str, *, iteration: int):
        super().__init__(f"{message} (update {iteration})")
        self.iteration = iteration

    def __reduce__(self):  # as IngestionError's
        return RuntimeError.__new__, (type(self), *self.args), self.__dict__


class AggregationError(ValueError):
    """Metric series from different runs cannot be aligned."""
