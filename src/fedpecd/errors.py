"""Exception types shared across the simulator."""


class FedPecdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FedPecdError, ValueError):
    """Array shape does not match what the operation requires."""


class NonFiniteError(FedPecdError, ValueError):
    """Input contains NaN or infinite entries."""


class NotPSDError(FedPecdError, ValueError):
    """A matrix that must be positive semidefinite is not."""


class ConfigurationError(FedPecdError, ValueError):
    """Scenario or run parameters violate a documented precondition."""


class ValidationError(FedPecdError, ValueError):
    """A scenario file or in-memory scenario fails its invariants."""


class ProtocolError(FedPecdError, RuntimeError):
    """Agents and server exchanged messages that break the protocol contract."""


class DegenerateArmError(FedPecdError, RuntimeError):
    """Aggregation received no usable information for an arm."""


class InfeasibleSpecError(FedPecdError, RuntimeError):
    """Random scenario generation exhausted its rejection budget."""
