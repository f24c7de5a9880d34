"""Exception types shared across the package: one per outcome a caller
can act on. ``cli.main`` maps SizeLimitExceeded to exit 3 and every other
CycleFactorError to exit 2."""


class CycleFactorError(Exception):
    """Base class for all package errors."""


class GraphError(CycleFactorError):
    """A graph breaks an invariant of its type."""


class ParseError(CycleFactorError):
    """A file is not a graph in the text format; names the line at fault."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")


class BadParameters(CycleFactorError):
    """An argument is out of range or inconsistent with the others."""


class SizeLimitExceeded(CycleFactorError):
    """Work refused because it would exceed a size or state budget."""


class StepBudgetExhausted(CycleFactorError):
    """The chain met no perfect state within its step budget."""
