"""Exception types shared across the simulator, agent, and harness."""


class HoneysimError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(HoneysimError):
    """Scenario configuration failed validation."""


class InsufficientResources(HoneysimError):
    """An action needs more resource units than the pool has available."""


class NoSuchNode(HoneysimError):
    """An action targeted a node id that does not exist."""


class IllegalTransition(HoneysimError):
    """An action is not legal for the target node's current status."""


class InsufficientBaseline(HoneysimError):
    """Anomaly scoring requires at least two baseline samples."""


class NonFinite(HoneysimError):
    """A reward parameter or value is NaN or infinite."""


class OperatorTimeout(HoneysimError):
    """The scripted operator's reply latency exceeded the time budget."""


class ModelIncomplete(HoneysimError):
    """Game search reached a (state, action) pair the model does not define."""


class WindowOutOfRange(HoneysimError):
    """A cry-for-help evidence window lies outside the ticks the accountant holds."""


class TraceCorrupt(HoneysimError):
    """A trace file violates the schema, ordering, or completeness rules."""
