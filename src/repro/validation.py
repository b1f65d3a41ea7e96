"""One guard for the float fields of configuration types.

NaN compares false both ways, so a hand-written ``x <= 0`` check lets it
through, and a NaN rate, window or weight then poisons whatever it
feeds (a NaN arrival rate never ends a load phase).  Every float field
of a config goes through :func:`require_finite` instead.
"""

from __future__ import annotations

import math


def require_finite(
    name: str,
    value: float,
    *,
    above: float | None = None,
    at_least: float | None = None,
) -> None:
    """Refuse a non-finite ``value``, or one not ``> above`` / ``>= at_least``.

    The ``ValueError`` names the field, so a test can match on it.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must be greater than {above}, got {value!r}")
    if at_least is not None and not value >= at_least:
        raise ValueError(f"{name} must be at least {at_least}, got {value!r}")
