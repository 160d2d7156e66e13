"""Exception types shared by the estimator modules."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""


class InsufficientSampleError(EstimationError, ValueError):
    """Too few observations for the requested estimator."""


class ContractError(EstimationError, ValueError):
    """A declared property of a caller-supplied object does not hold."""


class ParameterError(EstimationError, ValueError):
    """A parameter lies outside its admissible range."""


class CapabilityError(EstimationError, RuntimeError):
    """No analytic formula is available for the requested configuration."""


class EnumerationLimitError(EstimationError, RuntimeError):
    """Exact enumeration would exceed the configured tuple budget."""

    def __init__(self, required: int, limit: int):
        self.required = required
        self.limit = limit
        super().__init__(
            f"enumeration requires {required} tuples, which exceeds the "
            f"limit of {limit}; raise USHRINK_ENUM_LIMIT to override"
        )
