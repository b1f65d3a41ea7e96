"""Runtime contracts — the dynamic twin of the ``repro-check`` rules.

``@require``/``@ensure`` decorators attach executable pre/postconditions
to the functions that carry the paper's invariants (``Interval``
operations, Eq. 4-6 scoring, the CkNN-EC ranking loop, the dynamic cache's
``Q``/``t`` admission check).  They are **off by default**: unless the
environment variable ``REPRO_CONTRACTS`` is ``1`` at import time, the
decorators return the function unchanged, so production hot paths pay
zero overhead.

Run the tier-1 suite with ``REPRO_CONTRACTS=1`` to execute every contract
against the full test workload — the runtime proof that the statically
enforced invariants also hold dynamically.

Predicates receive the wrapped function's arguments *by name*: a
predicate declares exactly the parameters it cares about and the
decorator binds them from the call.  ``@ensure`` predicates may also name
``result`` to receive the return value::

    @require(lambda k: k >= 1, "k must be at least 1")
    @ensure(lambda result, k: len(result) <= k, "at most k entries")
    def top_k(scores: list[ScScore], k: int) -> list[ScScore]: ...

This module is stdlib-only and must stay import-light: it is imported by
``repro.intervals``, the bottom of the dependency tree.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., Any])

#: Name an ``@ensure`` predicate uses to receive the return value.
RESULT_PARAM = "result"


class ContractViolation(AssertionError):
    """A ``@require``/``@ensure`` predicate evaluated false."""


def contracts_enabled() -> bool:
    """True when ``REPRO_CONTRACTS=1`` is set in the environment."""
    return os.environ.get("REPRO_CONTRACTS", "") == "1"


def _predicate_params(predicate: Callable[..., bool]) -> tuple[str, ...]:
    return tuple(inspect.signature(predicate).parameters)


def _bind(func_sig: inspect.Signature, args: tuple[Any, ...], kwargs: dict[str, Any]) -> dict[str, Any]:
    bound = func_sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def require(predicate: Callable[..., bool], message: str) -> Callable[[_F], _F]:
    """Precondition: ``predicate`` must hold on the (named) arguments.

    No-op unless ``REPRO_CONTRACTS=1`` at import time.
    """
    if not contracts_enabled():
        return lambda func: func

    params = _predicate_params(predicate)

    def decorate(func: _F) -> _F:
        func_sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            arguments = _bind(func_sig, args, kwargs)
            values = [arguments[name] for name in params]
            if not predicate(*values):
                raise ContractViolation(
                    f"require violated in {func.__qualname__}: {message}"
                )
            return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def ensure(predicate: Callable[..., bool], message: str) -> Callable[[_F], _F]:
    """Postcondition: ``predicate`` must hold on ``result`` (and any named
    arguments) after the call.

    No-op unless ``REPRO_CONTRACTS=1`` at import time.
    """
    if not contracts_enabled():
        return lambda func: func

    params = _predicate_params(predicate)

    def decorate(func: _F) -> _F:
        func_sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            arguments = _bind(func_sig, args, kwargs)
            arguments[RESULT_PARAM] = result
            values = [arguments[name] for name in params]
            if not predicate(*values):
                raise ContractViolation(
                    f"ensure violated in {func.__qualname__}: {message}"
                )
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
