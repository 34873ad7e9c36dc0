"""The rawnet subcontract: RPC over raw packets (Section 9.2).

"In different operating system environments it may be appropriate to use
different IPC machinery for subcontracts or to operate at a lower level
and build exclusively on raw network packets.  Even in our environment it
is possible to mix the use of the kernel's door mechanism with the use of
raw IP packets, should one desire."

This subcontract does exactly that: its invoke path never touches a
kernel door.  Requests and replies travel as unreliable datagrams over
the network fabric, so the subcontract carries its own transport
protocol:

* **fragmentation** — messages are split into MTU-sized fragments and
  reassembled at the receiver;
* **retransmission** — the client resends the whole request after a
  timeout, a bounded number of times;
* **at-most-once execution** — the server caches the reply per
  (client, message id) and answers duplicate requests from the cache, so
  a lost *reply* never causes the operation to run twice.

One deliberate restriction, faithful to what raw packets can carry: door
identifiers are kernel capabilities and cannot ride a raw packet, so
marshalling an object or door argument through a rawnet object raises
:class:`MarshalError`.  (Spring's network servers would translate them;
a raw-packet transport has no such service.)  The *rawnet object itself*
is transmitted between domains through the ordinary kernel-mediated
channels — only its invoke path is packet-based.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.core.registry import ensure_registry
from repro.core.subcontract import ServerSubcontract
from repro.kernel.errors import CommunicationError, DeadlineExceeded
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.codec import TaggedStream
from repro.marshal.context import DEADLINE
from repro.marshal.errors import MarshalError
from repro.runtime.retry import RetryPolicy
from repro.subcontracts.common import RepClient

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain
    from repro.net.fabric import NetworkFabric

__all__ = ["RawNetClient", "RawNetServer", "RawNetRep", "MTU"]

#: maximum datagram payload carried per fragment
MTU = 1024

#: base simulated retransmission timeout; the retry policy backs it off
#: exponentially across retransmissions
RTO_US = 20_000.0

#: request attempts before giving up
MAX_ATTEMPTS = 6

#: the shared retransmission discipline: exponential RTO from the
#: historical flat constant, capped at 8x (a classic bounded backoff)
DEFAULT_RTO_POLICY = RetryPolicy(
    base_us=RTO_US,
    multiplier=2.0,
    max_backoff_us=RTO_US * 8,
    max_attempts=MAX_ATTEMPTS,
)

_KIND_REQUEST = 0
_KIND_REPLY = 1

_msg_ids = itertools.count(1)
_endpoint_ids = itertools.count(1)


class RawNetRep:
    """Where the server listens: a (machine name, port) endpoint."""

    __slots__ = ("machine_name", "port")

    def __init__(self, machine_name: str, port: str) -> None:
        self.machine_name = machine_name
        self.port = port

    # The object itself travels through the ordinary kernel-mediated
    # channels; the rep holds no door, so the door callables go unused.

    def write(self, buffer: MarshalBuffer, put_door: Callable) -> None:
        """Wire form: STRING machine name, STRING port."""
        buffer.put_string(self.machine_name)
        buffer.put_string(self.port)

    @classmethod
    def read(cls, buffer: MarshalBuffer, get_door: Callable) -> "RawNetRep":
        return cls(buffer.get_string(), buffer.get_string())

    def duplicate(self, dup_door: Callable) -> "RawNetRep":
        """The same endpoint; there is nothing to reference-count."""
        return RawNetRep(self.machine_name, self.port)

    def held_doors(self) -> tuple:
        """None: rawnet never touches a door."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RawNetRep {self.machine_name}:{self.port}>"


def _fragment(payload: bytes) -> list[bytes]:
    if not payload:
        return [b""]
    return [payload[i : i + MTU] for i in range(0, len(payload), MTU)]


def _pack_fragment(
    kind: int,
    msg_id: int,
    index: int,
    count: int,
    reply_machine: str,
    reply_port: str,
    chunk: bytes,
    trace_ctx: tuple[int, int] | None = None,
) -> bytes:
    stream = TaggedStream()
    stream.put_int8(kind)
    stream.put_int64(msg_id)
    stream.put_int32(index)
    stream.put_int32(count)
    stream.put_string(reply_machine)
    stream.put_string(reply_port)
    stream.put_bytes(chunk)
    if trace_ctx is not None:
        # Optional trailing item: appended only while tracing is enabled,
        # so the untraced packet format is byte-for-byte unchanged.
        stream.put_trace_ctx(*trace_ctx)
    return bytes(stream.data)


def _unpack_fragment(
    payload: bytes,
) -> tuple[int, int, int, int, str, str, bytes, tuple[int, int] | None]:
    stream = TaggedStream(payload)
    fields = (
        stream.get_int8(),
        stream.get_int64(),
        stream.get_int32(),
        stream.get_int32(),
        stream.get_string(),
        stream.get_string(),
        stream.get_bytes(),
    )
    trace_ctx = None if stream.exhausted() else stream.get_trace_ctx()
    return fields + (trace_ctx,)


class _Reassembler:
    """Collects fragments per message id until a message is whole."""

    def __init__(self) -> None:
        self._partial: dict[int, list[bytes | None]] = {}

    def offer(self, msg_id: int, index: int, count: int, chunk: bytes) -> bytes | None:
        slots = self._partial.setdefault(msg_id, [None] * count)
        if len(slots) != count:  # pragma: no cover - malformed peer
            return None
        slots[index] = chunk
        if any(piece is None for piece in slots):
            return None
        del self._partial[msg_id]
        return b"".join(slots)  # type: ignore[arg-type]

    def forget(self, msg_id: int) -> None:
        self._partial.pop(msg_id, None)


class _ClientEndpoint:
    """One datagram endpoint per (domain, fabric): receives replies."""

    def __init__(self, domain: "Domain", fabric: "NetworkFabric") -> None:
        self.domain = domain
        self.fabric = fabric
        self.port = f"rawnet-client-{next(_endpoint_ids)}"
        self.reassembler = _Reassembler()
        self.completed: dict[int, bytes] = {}
        fabric.register_port(domain.machine, self.port, self._receive)

    def _receive(self, payload: bytes) -> None:
        kind, msg_id, index, count, _, _, chunk, _ctx = _unpack_fragment(payload)
        if kind != _KIND_REPLY:
            return
        whole = self.reassembler.offer(msg_id, index, count, chunk)
        if whole is not None:
            self.completed[msg_id] = whole

    def take(self, msg_id: int) -> bytes | None:
        return self.completed.pop(msg_id, None)


def _client_endpoint(domain: "Domain") -> _ClientEndpoint:
    endpoint = domain.locals.get("rawnet_endpoint")
    if endpoint is None:
        machine = domain.machine
        if machine is None or machine.fabric is None:
            raise SubcontractError(
                "rawnet needs the domain to live on a machine with a fabric"
            )
        endpoint = _ClientEndpoint(domain, machine.fabric)
        domain.locals["rawnet_endpoint"] = endpoint
    return endpoint


class RawNetClient(RepClient):
    """Client operations vector for the rawnet subcontract."""

    id = "rawnet"
    rep_type = RawNetRep

    #: the retransmission discipline; per-domain budget override below
    rto_policy = DEFAULT_RTO_POLICY

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        if buffer.live_door_count():
            raise MarshalError(
                "rawnet cannot carry door identifiers in raw packets; "
                "pass capabilities through a door-based subcontract instead"
            )
        domain = self.domain
        kernel = domain.kernel
        endpoint = _client_endpoint(domain)
        rep: RawNetRep = obj._rep
        fabric = domain.machine.fabric

        msg_id = next(_msg_ids)
        payload = bytes(buffer.data)
        fragments = _fragment(payload)

        tracer = kernel.tracer
        trace_ctx = tracer.current_ctx() if tracer.enabled else None

        # The attempt budget is a per-domain policy knob: lossier links
        # warrant more patience (domain.locals["rawnet_max_attempts"]).
        budget = self.domain.locals.get("rawnet_max_attempts", MAX_ATTEMPTS)
        policy = self.rto_policy
        # Rawnet never touches a door, so the kernel's deadline legs never
        # see this call; enforce the caller's budget here instead.
        ctx = kernel.context.value
        dl = ctx.get(DEADLINE) if ctx is not None else None
        for attempt in range(budget):
            if dl is not None and kernel.clock.now_us >= dl:
                raise DeadlineExceeded(
                    f"rawnet: deadline passed before attempt {attempt + 1} "
                    f"to {rep.machine_name}:{rep.port}"
                )
            if attempt and tracer.enabled:
                tracer.event(
                    "rawnet.retransmit",
                    subcontract=self.id,
                    attempt=attempt,
                    msg_id=msg_id,
                )
            for index, chunk in enumerate(fragments):
                fabric.send_datagram(
                    domain.machine,
                    rep.machine_name,
                    rep.port,
                    _pack_fragment(
                        _KIND_REQUEST,
                        msg_id,
                        index,
                        len(fragments),
                        domain.machine.name,
                        endpoint.port,
                        chunk,
                        trace_ctx,
                    ),
                )
            whole = endpoint.take(msg_id)
            if whole is not None:
                if tracer.enabled:
                    tracer.annotate(retries=attempt)
                reply = MarshalBuffer(kernel)
                reply.data.extend(whole)
                reply.rewind()
                return reply
            # Nothing (or not everything) came back: wait one (backed-off)
            # RTO and retransmit the whole request.
            policy.pause(
                kernel.clock, attempt + 1, category="rawnet_rto", tracer=tracer
            )
            endpoint.reassembler.forget(msg_id)
        raise CommunicationError(
            f"rawnet: no reply from {rep.machine_name}:{rep.port} after "
            f"{budget} attempts"
        )


class RawNetServer(ServerSubcontract):
    """Server-side rawnet machinery: a datagram endpoint in front of the
    ordinary skeleton, with reply caching for at-most-once execution."""

    id = "rawnet"

    #: how many replies to remember per server for duplicate suppression
    REPLY_CACHE_LIMIT = 256

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        machine = domain.machine
        if machine is None or machine.fabric is None:
            raise SubcontractError(
                "rawnet needs the server domain to live on a machine with a fabric"
            )
        self.fabric = machine.fabric
        self.reassembler = _Reassembler()
        #: (reply_machine, reply_port, msg_id) -> reply payload
        self.reply_cache: dict[tuple[str, str, int], bytes] = {}
        self._cache_order: list[tuple[str, str, int]] = []
        #: statistics for tests and benches
        self.executions = 0
        self.duplicates_served = 0
        self._exports: dict[str, tuple[Any, "InterfaceBinding"]] = {}

    def export(self, impl: Any, binding: "InterfaceBinding", **options: Any):
        if options:
            raise TypeError(f"unknown export options: {sorted(options)}")
        port = f"rawnet-server-{next(_endpoint_ids)}"
        self._exports[port] = (impl, binding)
        self.fabric.register_port(
            self.domain.machine, port, lambda payload: self._receive(port, payload)
        )
        vector = ensure_registry(self.domain).lookup(self.id)
        return vector.make_object(
            RawNetRep(self.domain.machine.name, port), binding
        )

    def revoke(self, obj: SpringObject) -> None:
        obj._check_live()
        rep: RawNetRep = obj._rep
        self.fabric.unregister_port(self.domain.machine, rep.port)
        self._exports.pop(rep.port, None)

    # ------------------------------------------------------------------

    def _receive(self, port: str, payload: bytes) -> None:
        kind, msg_id, index, count, reply_machine, reply_port, chunk, trace_ctx = (
            _unpack_fragment(payload)
        )
        if kind != _KIND_REQUEST:
            return
        whole = self.reassembler.offer(msg_id, index, count, chunk)
        if whole is None:
            return
        key = (reply_machine, reply_port, msg_id)
        cached = self.reply_cache.get(key)
        if cached is not None:
            # A retransmitted request whose reply got lost: answer from
            # the cache, do NOT execute again (at-most-once).
            self.duplicates_served += 1
            tracer = self.domain.kernel.tracer
            if tracer.enabled:
                tracer.event(
                    "rawnet.duplicate", subcontract=self.id, msg_id=msg_id, port=port
                )
            self._send_reply(reply_machine, reply_port, msg_id, cached)
            return
        entry = self._exports.get(port)
        if entry is None:
            return  # revoked: silence, like a closed UDP port
        impl, binding = entry
        tracer = self.domain.kernel.tracer
        if tracer.enabled:
            # The handler span's parent is the context carried in-band in
            # the packet header — the packet is the only causal link.
            with tracer.begin_handler(
                self.domain, port, trace_ctx, transport="rawnet", msg_id=msg_id
            ):
                reply_payload = self._execute(port, impl, binding, whole)
        else:
            reply_payload = self._execute(port, impl, binding, whole)
        self._remember(key, reply_payload)
        self._send_reply(reply_machine, reply_port, msg_id, reply_payload)

    def _execute(self, port: str, impl: Any, binding: "InterfaceBinding", whole: bytes) -> bytes:
        kernel = self.domain.kernel
        request = MarshalBuffer(kernel)
        request.data.extend(whole)
        request.rewind()
        reply = MarshalBuffer(kernel)
        try:
            kernel.clock.charge("indirect_call")  # subcontract -> server stubs
            self.executions += 1
            binding.skeleton.dispatch(self.domain, impl, request, reply, binding)
            if reply.live_door_count():
                raise MarshalError(
                    "rawnet reply may not carry door identifiers; the "
                    f"operation's result type is incompatible with {port}"
                )
            return bytes(reply.data)
        finally:
            request.release()
            # On the incompatible-result path the reply parks doors that
            # will never be sent; drop them so their refcounts unwind.
            reply.recycle()

    def _remember(self, key: tuple[str, str, int], payload: bytes) -> None:
        self.reply_cache[key] = payload
        self._cache_order.append(key)
        while len(self._cache_order) > self.REPLY_CACHE_LIMIT:
            oldest = self._cache_order.pop(0)
            self.reply_cache.pop(oldest, None)

    def _send_reply(
        self, reply_machine: str, reply_port: str, msg_id: int, payload: bytes
    ) -> None:
        fragments = _fragment(payload)
        for index, chunk in enumerate(fragments):
            self.fabric.send_datagram(
                self.domain.machine,
                reply_machine,
                reply_port,
                _pack_fragment(
                    _KIND_REPLY,
                    msg_id,
                    index,
                    len(fragments),
                    self.domain.machine.name,
                    "",
                    chunk,
                ),
            )
