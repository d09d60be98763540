"""Resource caps for enumeration-heavy operations.

All caps are configurable per call site through a `Caps` instance.
`Caps.default()`, which the command line uses, also reads the element
cap from the environment variable TRANSFERLAB_ELEMENT_CAP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


class CapExceeded(Exception):
    """An operation would enumerate more than the configured cap allows."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def _env_element_cap(default: int) -> int:
    """The element cap from the environment: an integer >= 1, else ValueError."""
    raw = os.environ.get("TRANSFERLAB_ELEMENT_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(f"TRANSFERLAB_ELEMENT_CAP must be an integer >= 1, got {raw!r}")
    return cap


@dataclass(frozen=True)
class Caps:
    element_cap: int = 250_000
    iso_cap: int = 512
    aut_cap: int = 256
    subgroup_enum_cap: int = 256
    sylow_family_cap: int = 4096

    @classmethod
    def default(cls) -> "Caps":
        return cls(element_cap=_env_element_cap(250_000))


DEFAULT_CAPS = Caps()


def check_cap(what: str, needed: int, cap: int) -> None:
    if needed > cap:
        raise CapExceeded(what, needed, cap)
