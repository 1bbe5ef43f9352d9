"""Enumeration guards.

Exhaustive enumerations (lattice paths, words, subspaces) refuse inputs
whose cost would explode.  Each call site has a conservative built-in
bound; setting the environment variable ``QB_MAX_ENUM`` to an integer
replaces every bound by "at most that many enumerated objects".
"""

from __future__ import annotations

import os

from .errors import TooLargeError

ENV_VAR = "QB_MAX_ENUM"


def limit(default_limit: int) -> int:
    """The effective bound: ``default_limit``, or QB_MAX_ENUM when it is set."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return default_limit
    try:
        value = int(raw)
    except ValueError as exc:
        raise TooLargeError("%s must be an integer, got %r" % (ENV_VAR, raw)) from exc
    if value < 1:
        raise TooLargeError("%s must be positive, got %d" % (ENV_VAR, value))
    return value


def check_count(count: int, default_limit: int, what: str) -> None:
    """Raise TooLargeError if count exceeds limit(default_limit).  The
    message names the limit, not the count, which may be too long to print."""
    bound = limit(default_limit)
    if count > bound:
        raise TooLargeError(
            "%s would enumerate more than %d objects (override with %s)"
            % (what, bound, ENV_VAR)
        )
