"""Resource ceilings for closure computations.

The default ceiling applies to every unbounded construction (subset
construction, submonoid and transition closures, among them the atoms
of a generated algebra).  It can be raised
or lowered globally through the ``LANGREC_MAX_CLOSURE`` environment
variable; individual operations accept an explicit override.
"""

import os

from .errors import InputError

DEFAULT_CLOSURE = 100_000


def closure_limit(requested: int | None = None) -> int:
    """Effective ceiling: explicit argument, else env var, else default."""
    if requested is not None:
        if type(requested) is not int:  # a bool or a float is no bound
            raise InputError(f"closure limit must be an integer, got {requested!r}")
        if requested < 1:
            raise InputError(f"closure limit must be positive, got {requested}")
        return requested
    raw = os.environ.get("LANGREC_MAX_CLOSURE")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise InputError(f"LANGREC_MAX_CLOSURE is not an integer: {raw!r}") from exc
        if value < 1:
            raise InputError(f"LANGREC_MAX_CLOSURE must be positive, got {value}")
        return value
    return DEFAULT_CLOSURE
