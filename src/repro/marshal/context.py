"""The call context: values of a call, not of its arguments.

A call's deadline, the logical request a retry repeats, the span it
continues ride beside the marshalled bytes as one opaque value: a small
dict ``{key id: value}``, ``None`` when empty, never changed in place.
The kernel stamps the calling thread's context onto the buffer, the
fabrics and the envelope move it unread, and the serving kernel makes
it the handler thread's context, less the keys that name one hop only.
The module that owns a key registers it once with :func:`register_key`;
the base reads no key but :data:`DEADLINE`, at the legs that enforce it.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

__all__ = ["ContextKey", "KEYS", "HOP_KEYS", "DEADLINE", "register_key"]

#: the one key the base reads (absolute sim-us on the local clock); its
#: codec and inheritance are registered by :mod:`repro.runtime.deadline`
DEADLINE = 1


class ContextKey(NamedTuple):
    """A key's name and codec: ``encode(value, now_us) -> bytes`` on the
    sender's clock, ``decode(data, now_us) -> value`` (raising on bytes it
    cannot read) on the receiver's."""

    name: str
    encode: Callable[[Any, float], bytes]
    decode: Callable[[bytes, float], Any]


#: key id -> registration; the envelope refuses any id not listed here
KEYS: dict[int, ContextKey] = {}

#: ids of the keys a handler's own calls do not inherit
HOP_KEYS: set[int] = set()


def register_key(
    key_id: int,
    name: str,
    *,
    encode: Callable[[Any, float], bytes],
    decode: Callable[[bytes, float], Any],
    inherit: bool,
) -> int:
    """Register ``key_id`` (one byte on the wire) once; returns it."""
    if not 0 < key_id < 256:
        raise ValueError(f"context key id must be in 1..255, got {key_id!r}")
    if key_id in KEYS:
        raise ValueError(
            f"context key id {key_id} is already registered as {KEYS[key_id].name!r}"
        )
    KEYS[key_id] = ContextKey(name, encode, decode)
    if not inherit:
        HOP_KEYS.add(key_id)
    return key_id
