"""Shared exception types, and the one checks of a size cap and of an integer."""

import numpy as np


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def check_cap(what: str, size: int, cap: int, *args) -> None:
    """Refuse `size` above `cap`: the one place a size cap raises
    ResourceLimitError.  `what` names the quantity in the cap's unit; it is
    filled in with `args` by ``str.format`` only when it refuses."""
    if size > cap:
        raise ResourceLimitError(f"{what.format(*args)}: {size} exceeds cap {cap}")


def check_int(value, what: str, low: int = 1, high: int | None = None) -> int:
    """`value` as an int if it is a Python or numpy integer, not a bool, in
    [low, high] (unbounded above when high is None); else ValidationError.
    The one place an integer is told from a float, a bool or a string."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{what}: {value!r} is not an integer {bound}")
    return int(value)
