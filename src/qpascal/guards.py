"""Enumeration guards.

Exhaustive enumerations (lattice paths, words, subspaces) refuse inputs
whose cost would explode.  Each call site has a conservative built-in
bound; setting the environment variable ``QB_MAX_ENUM`` to an integer
replaces every bound by "at most that many enumerated objects".
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import TooLargeError

ENV_VAR = "QB_MAX_ENUM"


def check_count(counts: Iterable[int], default_limit: int, what: str) -> None:
    """Raise TooLargeError at the first of ``counts`` above the bound:
    ``counts`` is a non-decreasing sequence of partial counts ending with
    the exact count, so a refused count is never finished.  The message
    names the bound, not the count, which may be too long to print."""
    raw = os.environ.get(ENV_VAR, "").strip()
    try:
        bound = int(raw) if raw else default_limit
    except ValueError as exc:
        raise TooLargeError("%s must be an integer, got %r" % (ENV_VAR, raw)) from exc
    if bound < 1:
        raise TooLargeError("%s must be positive, got %d" % (ENV_VAR, bound))
    if any(c > bound for c in counts):
        raise TooLargeError(
            "%s would enumerate more than %d objects (override with %s)"
            % (what, bound, ENV_VAR)
        )
