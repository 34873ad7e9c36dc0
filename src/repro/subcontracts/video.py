"""The video subcontract (Section 8.4, future directions).

"One is to develop a subcontract that lets video objects encapsulate a
specific network packet protocol for live video."

Control operations (play/stop/describe, whatever the IDL interface
declares) travel the ordinary door path.  The *media* path is different:
frames are pushed over the network fabric's unreliable datagram service
— no replies, loss tolerated — which is exactly the kind of new
communication machinery the paper argues should be introducible without
touching the base RPC system.

The subscription handshake is subcontract-level control: the client-side
``subscribe`` sends a reserved request that the server-side handler
intercepts *before* the skeleton ever sees it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import SubcontractError
from repro.core.object import SpringObject
from repro.core.stubs import write_ok_status
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.singleton import SingleDoorClient, SingleDoorServer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.doors import DoorHandler

__all__ = ["VideoClient", "VideoServer"]

#: reserved wire operation intercepted by the server-side video handler
_SUBSCRIBE_OP = "_video_subscribe"
_UNSUBSCRIBE_OP = "_video_unsubscribe"

_port_counter = itertools.count(1)


class VideoClient(SingleDoorClient):
    """Client operations vector for the video subcontract."""

    id = "video"

    def subscribe(
        self, obj: SpringObject, on_frame: Callable[[int, bytes], None]
    ) -> str:
        """Open a live stream: frames arrive on ``on_frame(seq, payload)``.

        Registers a datagram port on the client's machine and tells the
        server-side subcontract to push frames at it.  Returns the port
        name (pass it to :meth:`unsubscribe`).
        """
        machine = self.domain.machine
        if machine is None or machine.fabric is None:
            raise SubcontractError(
                "video subscription needs a machine with a network fabric"
            )
        port = f"video-{next(_port_counter)}"

        def deliver(payload: bytes) -> None:
            seq = int.from_bytes(payload[:8], "little")
            on_frame(seq, payload[8:])

        machine.fabric.register_port(machine, port, deliver)
        self._control(obj, _SUBSCRIBE_OP, machine.name, port)
        return port

    def unsubscribe(self, obj: SpringObject, port: str) -> None:
        """Stop a live stream and release the datagram port."""
        machine = self.domain.machine
        self._control(obj, _UNSUBSCRIBE_OP, machine.name, port)
        machine.fabric.unregister_port(machine, port)

    def _control(
        self, obj: SpringObject, op: str, machine_name: str, port: str
    ) -> None:
        obj._check_live()
        kernel = self.domain.kernel
        buffer = MarshalBuffer(kernel)
        buffer.put_string(op)
        buffer.put_string(machine_name)
        buffer.put_string(port)
        try:
            reply = kernel.door_call(self.domain, obj._rep.door, buffer)
        finally:
            buffer.release()
        reply.get_int8()  # status; subscription control never fails soft
        reply.release()


class VideoServer(SingleDoorServer):
    """Server-side video machinery.

    Wraps the normal skeleton-forwarding handler with an interceptor for
    the subscription control operations, and pumps frames to subscribers
    over the fabric's datagram service.
    """

    id = "video"

    def __init__(self, domain: Any) -> None:
        super().__init__(domain)
        #: (machine_name, port) -> next sequence number
        self.subscribers: dict[tuple[str, str], int] = {}

    def wrap_handler(
        self, inner: "DoorHandler", impl: Any, binding: "InterfaceBinding"
    ) -> "DoorHandler":
        def handler(request: MarshalBuffer) -> MarshalBuffer:
            saved = request.pos
            op = request.get_string()
            if op == _SUBSCRIBE_OP or op == _UNSUBSCRIBE_OP:
                machine_name = request.get_string()
                port = request.get_string()
                if op == _SUBSCRIBE_OP:
                    self.subscribers[(machine_name, port)] = 0
                else:
                    self.subscribers.pop((machine_name, port), None)
                reply = MarshalBuffer(self.domain.kernel)
                write_ok_status(reply)
                return reply
            request.pos = saved
            return inner(request)

        return handler

    def pump_frames(self, frames: list[bytes]) -> int:
        """Push a batch of frames to every subscriber.

        Each frame goes out as one unreliable datagram (eight bytes of
        sequence number + payload); the fabric applies its loss model.
        Returns the number of datagrams offered to the network.
        """
        machine = self.domain.machine
        if machine is None or machine.fabric is None:
            raise SubcontractError("video server needs a machine with a fabric")
        fabric = machine.fabric
        sent = 0
        for (machine_name, port), seq in list(self.subscribers.items()):
            for frame in frames:
                payload = seq.to_bytes(8, "little") + frame
                fabric.send_datagram(machine, machine_name, port, payload)
                seq += 1
                sent += 1
            self.subscribers[(machine_name, port)] = seq
        return sent

    def revoke(self, obj: SpringObject) -> None:
        super().revoke(obj)
        self.subscribers.clear()
