"""Exception types shared across the package."""


class CycleFactorError(Exception):
    """Base class for all package errors."""


class GraphError(CycleFactorError):
    """Base class for graph validation and construction errors."""


class DegreeMismatch(GraphError):
    def __init__(self, vertex: int, found: int, expected: int, kind: str = "out"):
        self.vertex = vertex
        self.found = found
        self.expected = expected
        self.kind = kind
        super().__init__(
            f"vertex {vertex} has {kind}-degree {found}, expected {expected}"
        )


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        super().__init__(f"duplicate edge ({u}, {v})")


class IndexOutOfRange(GraphError):
    def __init__(self, vertex: int, n: int):
        self.vertex = vertex
        self.n = n
        super().__init__(f"vertex index {vertex} out of range [0, {n})")


class AsymmetricEdge(GraphError):
    def __init__(self, u: int, v: int):
        self.u = u
        self.v = v
        super().__init__(f"edge ({u}, {v}) present but ({v}, {u}) missing")


class LoopNotAllowed(GraphError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"loop at vertex {vertex} not allowed in undirected graph")


class BadParameters(CycleFactorError):
    pass


class ParseError(CycleFactorError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class FormatMismatch(CycleFactorError):
    pass


class SizeLimitExceeded(CycleFactorError):
    pass


class StepBudgetExhausted(CycleFactorError):
    pass


class GraphDisconnected(CycleFactorError):
    pass


class InvalidDistribution(CycleFactorError):
    pass
