"""Resource caps for enumeration-heavy operations.

A cap never changes an answer; it only decides whether the answer is
computed.  So a cap is checked when an answer is computed, and an answer
that is already kept (a memo entry, a group's listed elements) is
returned under any caps.  The caps in force are one setting, read by
the functions that check a cap (`current_caps`) and set for a block by
`limits`, the way `decimal.localcontext` sets the precision:

    with limits(Caps(element_cap=1000)):
        ...

Outside any `limits` block the caps in force are `DEFAULT_CAPS`.
`Caps.default()`, which the command line puts in force, also reads the
element cap from the environment variable TRANSFERLAB_ELEMENT_CAP.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


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

    @classmethod
    def default(cls) -> "Caps":
        return cls(element_cap=_env_element_cap(250_000))


DEFAULT_CAPS = Caps()

_in_force: ContextVar[Caps] = ContextVar("caps_in_force", default=DEFAULT_CAPS)


def current_caps() -> Caps:
    """The caps in force: those of the innermost `limits` block, else
    DEFAULT_CAPS."""
    return _in_force.get()


@contextmanager
def limits(in_force: Caps) -> Iterator[Caps]:
    """Make in_force the caps in force for the block, then restore the caps
    that were in force before it."""
    token = _in_force.set(in_force)
    try:
        yield in_force
    finally:
        _in_force.reset(token)


def check_cap(what: str, needed: int, cap: int) -> None:
    if needed > cap:
        raise CapExceeded(what, needed, cap)
