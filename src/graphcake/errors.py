"""Exception hierarchy shared by all graphcake modules."""


class CakeError(Exception):
    """Base class for all graphcake errors."""


class GraphConstructionError(CakeError):
    """The graph violates a structural invariant (loop, duplicate id, disconnected)."""


class MalformedInput(CakeError):
    """A document or value is missing a field or has the wrong shape or type."""


class MalformedPiece(CakeError):
    """A piece references an unknown edge, or an interval outside [0, 1] or
    with its bounds reversed."""


class DisconnectedPiece(CakeError):
    """An operation required a nonempty connected piece."""


class UnknownEdge(CakeError):
    """A valuation or piece refers to an edge the graph does not have."""


class NotAlmostBridgeless(CakeError):
    """The graph admits no contiguous oriented labeling."""


class LabelingNotContiguous(CakeError):
    """The supplied oriented labeling fails the contiguity predicate."""


class BudgetExceeded(CakeError):
    """An exhaustive search exceeded its configured state budget."""


class InsufficientValue(CakeError):
    """A cut or extraction target exceeds the available value."""


class ZeroValuePiece(CakeError):
    """Renormalization requested on a piece the agent values at zero."""


class DomainError(CakeError):
    """Arguments outside the documented domain of a formula."""


class NotAStar(CakeError):
    """The protocol requires a star graph with at least three edges."""


class AlphaOutOfRange(CakeError):
    """The entitlement parameter must satisfy 0 < alpha <= 1/4."""


class NotHeightTwoTree(CakeError):
    """The protocol requires a tree of height at most two from the given root."""


class TooManyAgents(CakeError):
    """The protocol's guarantee is only established for a bounded number of agents."""


class UnknownFixture(CakeError):
    """No fixture with the requested name exists."""


class BadParameters(DomainError):
    """Fixture, generator or protocol parameters outside their valid ranges."""


class ProtocolInvariantError(CakeError):
    """An internal invariant a protocol relies on failed at runtime (defect signal)."""
