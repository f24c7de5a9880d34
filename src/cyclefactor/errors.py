"""Exception types shared across the package."""


class CycleFactorError(Exception):
    """Base class for all package errors."""


class GraphError(CycleFactorError):
    """Base class for graph validation and construction errors."""


class DegreeMismatch(GraphError):
    def __init__(self, vertex: int, found: int, expected: int, kind: str = "out"):
        self.kind = kind
        what = kind if kind == "degree" else f"{kind}-degree"
        super().__init__(f"vertex {vertex} has {what} {found}, expected {expected}")


class DuplicateEdge(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")


class IndexOutOfRange(GraphError):
    def __init__(self, vertex: int, n: int):
        super().__init__(f"vertex index {vertex} out of range [0, {n})")


class AsymmetricEdge(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"edge ({u}, {v}) present but ({v}, {u}) missing")


class LoopNotAllowed(GraphError):
    def __init__(self, vertex: int):
        super().__init__(f"loop at vertex {vertex} not allowed in undirected graph")


class BadParameters(CycleFactorError):
    pass


class ParseError(CycleFactorError):
    def __init__(self, line: int, reason: str):
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
