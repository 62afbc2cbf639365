"""Exception types shared across the package."""


class MixrepError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MixrepError, ValueError):
    """Incompatible operand shapes for a graph operation."""

    def __init__(self, op: str, shapes, detail: str = ""):
        self.op = op
        self.shapes = tuple(shapes)
        msg = f"op '{op}': incompatible shapes {' vs '.join(str(s) for s in self.shapes)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateVectorError(MixrepError, ValueError):
    """A vector whose norm is too small to normalize."""


class NonSmoothPointError(MixrepError):
    """A gradient check hit an exact tie inside a max/min reduction."""


class GradientCheckError(MixrepError):
    """A finite-difference evaluation produced NaN."""


class PosteriorUnderflowError(MixrepError, ValueError):
    """All mode probabilities underflowed; the normalized posterior is 0/0."""


class ConfigError(MixrepError, ValueError):
    """Invalid or unknown configuration content."""


class DatasetError(MixrepError, ValueError):
    """Malformed dataset content. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonFiniteRowError(DatasetError):
    """An input row that the network maps to non-finite values, such as one
    too large for it. `row` is its index among the rows at hand, `largest`
    its largest |input|; `name` says which row it is in the message."""

    def __init__(self, row: int, largest: float, name: str):
        self.row, self.largest = row, largest
        super().__init__(f"{name} maps to non-finite features (largest |input| {largest:.3g})")


class TrainingDiverged(MixrepError, RuntimeError):
    """A training step produced a non-finite loss."""

    def __init__(self, message: str, iteration: int | None = None, batch_ids=None):
        self.iteration = iteration
        self.batch_ids = list(batch_ids) if batch_ids is not None else None
        super().__init__(message)
