"""A call-path feature defined entirely outside ``src/``: a quota.

The code below the marker is printed, verbatim, as the sample of the
"Adding a feature" section of ``docs/architecture.md``;
``tests/integration/test_quota.py`` executes the printed copy and drives
this one across every way a call can reach a door.
"""

# -- sample --
from repro.kernel.errors import KernelError
from repro.marshal.context import register_key

#: who is calling: stamped at launch, read where the call lands; per hop
CALLER = register_key(
    0x41,
    "caller",
    encode=lambda name, now_us: name.encode("utf-8"),
    decode=lambda data, now_us: bytes(data).decode("utf-8"),
    inherit=False,
)


class QuotaExceeded(KernelError):
    """A caller has spent its quota of calls."""


class Quota:
    """At most ``limit`` calls per calling domain, counted where calls
    land.  Install with ``kernel.interpose(quota)``; remove with
    ``kernel.withdraw(quota)``.  An over-quota call is refused at the
    gate seam, before the door charges its traversal or counts it."""

    rank = 35  # outside admission (40): a refused call takes no slot

    def __init__(self, limit):
        self.limit = limit
        self.spent = {}

    def around_launch(self, inner):
        def launch(caller, door, buffer, remote):
            held = buffer.ctx
            buffer.ctx = {**(held or {}), CALLER: caller.name}
            try:
                return inner(caller, door, buffer, remote)
            finally:
                buffer.ctx = held

        return launch

    def around_gate(self, inner):
        def gate(door, buffer):
            caller = (buffer.ctx or {}).get(CALLER, "")
            spent = self.spent.get(caller, 0)
            if spent >= self.limit:
                raise QuotaExceeded(f"{caller!r} has spent its {self.limit} calls")
            self.spent[caller] = spent + 1
            return inner(door, buffer)

        return gate
