"""Shared exception types, and the one check that refuses a size cap."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant."""


def check_cap(what: str, size: int, cap: int) -> None:
    """Refuse `size` above `cap`: the one place a size cap raises
    ResourceLimitError.  `what` names the quantity in the cap's unit."""
    if size > cap:
        raise ResourceLimitError(f"{what}: {size} exceeds cap {cap}")
