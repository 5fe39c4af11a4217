"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SaturnetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SaturnetError):
    """Invalid argument or data: bad shapes, violated invariants, out-of-range values."""


class FileFormatError(SaturnetError):
    """An input file does not have the expected structure."""


class BlockError(SaturnetError):
    """An error that belongs to one block of the decomposition, when known.

    ``block`` is the trapping set's index (None for the transient part or
    when no single block is at fault), ``kind`` its SinkKind or
    ``"transient"``, and ``nodes`` its node ids. ``at`` names the flow at
    which it failed, when one of many was solved (``"eps = 0.35"`` in a
    sweep). The message starts with them.
    """

    def __init__(self, message: str, block: int | None = None, kind=None, nodes=(), at: str | None = None):
        self.block = block
        self.kind = kind
        self.nodes = tuple(int(i) for i in nodes)
        self.at = at
        if kind is not None:
            where = "" if at is None else f" at {at}"
            message = f"{_describe_block(block, kind, self.nodes)}{where}: {message}"
        super().__init__(message)


def _describe_block(block: int | None, kind, nodes) -> str:
    """``trapping set 3 (out_connected; nodes 4, 7)`` or ``the transient part (nodes ...)``."""
    shown = ", ".join(map(str, nodes[:10])) + (f", ... ({len(nodes)} nodes)" if len(nodes) > 10 else "")
    if block is None:
        return f"the transient part (nodes {shown})"
    return f"trapping set {block} ({getattr(kind, 'value', kind)}; nodes {shown})"


class NonConvergenceError(BlockError):
    """Fixed-point iteration exhausted its budget without converging.

    Carries the last iterate so callers can inspect or resume.
    """

    def __init__(self, message: str, last_iterate=None, iterations: int = 0, **block):
        super().__init__(message, **block)
        self.last_iterate = last_iterate
        self.iterations = iterations


class PartitionInconsistencyError(BlockError):
    """An exact re-solve contradicted the node classification it was based on.

    Usually means the input point was too far from an equilibrium for the
    classification tolerance in use.
    """

    def __init__(self, message: str, candidate=None, residual: float | None = None, **block):
        super().__init__(message, **block)
        self.candidate = candidate
        self.residual = residual


class NotCriticalError(SaturnetError):
    """A jump quantity was requested at a flow where the equilibrium is unique."""
