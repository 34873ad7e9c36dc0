"""Call deadlines: a time budget that travels with the invocation.

``with deadline(kernel, timeout_us):`` puts an *absolute* simulated
deadline in the calling thread's call context, under the
:data:`~repro.marshal.context.DEADLINE` key this module registers.  The
kernel stamps the context on every buffer it transmits, so the budget
follows the call through doors and both fabrics into server-side
handlers, where nested calls inherit it — in a process-fabric worker
too, where the key's codec has sent the *remaining* budget and
re-anchored it on the worker's clock.  Enforcement sits at the
transmission legs:

* ``Kernel.door_call`` refuses to launch a call whose deadline has
  already passed;
* the fabric checks after each wire leg (a reply that lands late is
  recycled and reported lost, exactly like a reply lost to a partition);
* the network servers check after door-identifier translation;
* the process fabric refuses to cross with a spent budget;
* delivery checks on arrival, before the handler runs.

Every violation surfaces as :class:`~repro.kernel.errors.DeadlineExceeded`
— a communication failure that retry policies deliberately refuse to
retry (see :meth:`repro.runtime.retry.RetryPolicy.retryable`).

Deadlines nest by tightening only: an inner ``deadline()`` may shorten
the budget but never extend what an outer caller granted.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.marshal.context import DEADLINE, register_key

if TYPE_CHECKING:
    from repro.kernel.nucleus import Kernel

__all__ = ["deadline", "remaining_us"]

register_key(
    DEADLINE,
    "deadline",
    encode=lambda absolute, now_us: struct.pack("<d", absolute - now_us),
    decode=lambda data, now_us: now_us + struct.unpack("<d", data)[0],
    inherit=True,
)


@contextmanager
def deadline(kernel: "Kernel", timeout_us: float) -> Iterator[float]:
    """Bound every call made in this block to ``timeout_us`` of sim time.

    Yields the absolute deadline (sim-us).  Restores the caller's prior
    context on exit; nesting tightens, never loosens.
    """
    if timeout_us < 0:
        raise ValueError(f"cannot set a negative deadline ({timeout_us} us)")
    local = kernel.context
    prior = local.value
    absolute = kernel.clock.now_us + timeout_us
    outer = prior.get(DEADLINE) if prior is not None else None
    if outer is not None and outer < absolute:
        absolute = outer
    local.value = {**(prior or {}), DEADLINE: absolute}
    try:
        yield absolute
    finally:
        local.value = prior


def remaining_us(kernel: "Kernel") -> float | None:
    """Sim-us left on the calling thread's deadline; ``None`` if unbounded."""
    ctx = kernel.context.value
    value = ctx.get(DEADLINE) if ctx is not None else None
    if value is None:
        return None
    return value - kernel.clock.now_us
