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


def check_count(count: int, default_limit: int, what: str) -> None:
    """Raise TooLargeError if count exceeds the effective limit:
    ``default_limit``, or QB_MAX_ENUM when it is set."""
    limit = default_limit
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise TooLargeError(
                "%s must be an integer, got %r" % (ENV_VAR, raw)
            ) from exc
        if limit < 1:
            raise TooLargeError("%s must be positive, got %d" % (ENV_VAR, limit))
    if count > limit:
        raise TooLargeError(
            "%s would enumerate %d objects, above the limit %d "
            "(override with %s)" % (what, count, limit, ENV_VAR)
        )
