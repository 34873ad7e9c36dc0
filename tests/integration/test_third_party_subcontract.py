"""Section 9's headline claim, tested end-to-end:

"We have been able to implement a number of interesting new subcontracts
without requiring any new facilities in the base system."

This file plays the role of a third-party developer: it defines two new
subcontracts — an *enciphering* subcontract that obscures every argument
and reply buffer between client and server, and an *auditing* subcontract
that counts and sizes all traffic — using only the public subcontract
API.  The generated stubs, the kernel, the marshal layer, and the
registry are all untouched; existing client code (including the naming
service and dynamic discovery) interoperates with the new subcontracts
immediately.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.core import narrow
from repro.core.object import SpringObject
from repro.core.registry import ensure_registry
from repro.core.subcontract import ClientSubcontract, ServerSubcontract
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.transfer import transfer
from repro.subcontracts.common import SingleDoorRep, make_door_handler
from repro.subcontracts.singleton import SingleDoorServer
from tests.conftest import CounterImpl, make_domain

# ----------------------------------------------------------------------
# third-party subcontract #1: encipher every buffer with a keyed XOR.
# (Obfuscation for the test's purposes; the point is that the subcontract
# owns both directions of the byte stream.)
# ----------------------------------------------------------------------


def _xor(data: bytes, key: int) -> bytes:
    return bytes(b ^ key for b in data)


class EncipheringClient(ClientSubcontract):
    id = "encipher"

    def invoke(self, obj: SpringObject, buffer: MarshalBuffer) -> MarshalBuffer:
        kernel = self.domain.kernel
        rep = obj._rep  # (door, key)
        sealed = MarshalBuffer(kernel)
        sealed.put_int32(rep.key)
        sealed.put_bytes(_xor(bytes(buffer.data), rep.key))
        sealed.doors = buffer.doors  # door rights ride alongside
        buffer.doors = []
        reply_sealed = kernel.door_call(self.domain, rep.door, sealed)
        key = reply_sealed.get_int32()
        reply = MarshalBuffer(kernel)
        reply.data.extend(_xor(reply_sealed.get_bytes(), key))
        reply.doors = reply_sealed.doors
        reply_sealed.doors = []
        reply.rewind()
        return reply

    def marshal_rep(self, obj, buffer):
        buffer.put_door_id(self.domain, obj._rep.door)
        buffer.put_int32(obj._rep.key)

    def unmarshal_rep(self, buffer, binding):
        door = buffer.get_door_id(self.domain)
        key = buffer.get_int32()
        return self.make_object(_EncipherRep(door, key), binding)

    def copy(self, obj):
        duplicate = self.domain.kernel.copy_door_id(self.domain, obj._rep.door)
        return self.make_object(_EncipherRep(duplicate, obj._rep.key), obj._binding)

    def consume(self, obj):
        self.domain.kernel.delete_door_id(self.domain, obj._rep.door)
        obj._mark_consumed()


class _EncipherRep:
    __slots__ = ("door", "key")

    def __init__(self, door, key):
        self.door = door
        self.key = key


class EncipheringServer(SingleDoorServer):
    """Built on the one-door-per-object base: states only its wrapper
    and its representation; export, revoke and the unreferenced
    notification are inherited."""

    id = "encipher"

    def __init__(self, domain, key: int = 0x5A):
        super().__init__(domain)
        _client_vector(domain)  # the serving domain links the library too
        self.key = key
        #: raw byte streams observed on the wire side (for the test's
        #: "an eavesdropper sees nothing legible" assertion)
        self.wire_samples: list[bytes] = []

    def wrap_handler(self, inner, impl, binding):
        kernel = self.domain.kernel

        def handler(sealed: MarshalBuffer) -> MarshalBuffer:
            key = sealed.get_int32()
            ciphertext = sealed.get_bytes()
            self.wire_samples.append(ciphertext)
            request = MarshalBuffer(kernel)
            request.data.extend(_xor(ciphertext, key))
            request.doors = sealed.doors
            sealed.doors = []
            request.rewind()
            reply = inner(request)
            out = MarshalBuffer(kernel)
            out.put_int32(key)
            out.put_bytes(_xor(bytes(reply.data), key))
            out.doors = reply.doors
            reply.doors = []
            return out

        return handler

    def make_rep(self, door_id, binding):
        return _EncipherRep(door_id, self.key)


def _client_vector(domain) -> EncipheringClient:
    registry = ensure_registry(domain)
    if not registry.knows("encipher"):
        registry.register(EncipheringClient)
    return registry.lookup("encipher")


# ----------------------------------------------------------------------
# third-party subcontract #2: audit call counts and byte volumes.
# ----------------------------------------------------------------------


class AuditLog:
    def __init__(self):
        self.calls = 0
        self.bytes_out = 0
        self.bytes_in = 0


class AuditingClient(ClientSubcontract):
    id = "auditing"

    #: one shared log per domain, stashed in domain.locals
    @property
    def log(self) -> AuditLog:
        return self.domain.locals.setdefault("audit_log", AuditLog())

    def invoke(self, obj, buffer):
        self.log.calls += 1
        self.log.bytes_out += buffer.size
        reply = self.domain.kernel.door_call(self.domain, obj._rep.door, buffer)
        self.log.bytes_in += reply.size
        return reply

    def marshal_rep(self, obj, buffer):
        buffer.put_door_id(self.domain, obj._rep.door)

    def unmarshal_rep(self, buffer, binding):
        return self.make_object(SingleDoorRep(buffer.get_door_id(self.domain)), binding)

    def copy(self, obj):
        duplicate = self.domain.kernel.copy_door_id(self.domain, obj._rep.door)
        return self.make_object(SingleDoorRep(duplicate), obj._binding)

    def consume(self, obj):
        self.domain.kernel.delete_door_id(self.domain, obj._rep.door)
        obj._mark_consumed()


class AuditingServer(ServerSubcontract):
    id = "auditing"

    def export(self, impl, binding, **options):
        handler = make_door_handler(self.domain, impl, binding)
        door = self.domain.kernel.create_door(self.domain, handler, label="auditing")
        registry = ensure_registry(self.domain)
        if not registry.knows("auditing"):
            registry.register(AuditingClient)
        return registry.lookup("auditing").make_object(SingleDoorRep(door), binding)

    def revoke(self, obj):
        self.domain.kernel.revoke_door(self.domain, obj._rep.door.door)


# ----------------------------------------------------------------------


def ship(kernel, src, dst, obj, binding):
    buffer = MarshalBuffer(kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(src)
    return binding.unmarshal_from(buffer, dst)


class TestEncipheringSubcontract:
    def test_existing_stubs_work_unchanged(self, kernel, counter_module):
        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        _client_vector(client)  # "link" the third-party library
        binding = counter_module.binding("counter")
        subcontract_server = EncipheringServer(server)
        obj = ship(
            kernel, server, client, subcontract_server.export(CounterImpl(), binding), binding
        )
        # The stock generated stubs drive the brand-new subcontract.
        assert obj._subcontract.id == "encipher"
        assert obj.add(7) == 7
        assert obj.total() == 7

    def test_wire_bytes_are_obscured(self, kernel, counter_module):
        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        _client_vector(client)
        binding = counter_module.binding("counter")
        subcontract_server = EncipheringServer(server)
        obj = ship(
            kernel, server, client, subcontract_server.export(CounterImpl(), binding), binding
        )
        obj.add(1)
        assert subcontract_server.wire_samples
        for sample in subcontract_server.wire_samples:
            assert b"add" not in sample  # opname not legible on the wire

    def test_remote_exceptions_survive_the_cipher(self, kernel, counter_module):
        from repro.core.errors import RemoteApplicationError

        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        _client_vector(client)
        binding = counter_module.binding("counter")

        class Angry(CounterImpl):
            def add(self, n):
                raise RuntimeError("no additions today")

        obj = ship(
            kernel,
            server,
            client,
            EncipheringServer(server).export(Angry(), binding),
            binding,
        )
        with pytest.raises(RemoteApplicationError, match="no additions"):
            obj.add(1)

    def test_interoperates_with_naming(self, env, counter_module):
        """The naming service (written long before this subcontract
        existed) stores and hands out enciphered objects untouched."""
        server = env.create_domain("m1", "server")
        client = env.create_domain("m2", "client")
        _client_vector(server)
        _client_vector(client)
        binding = counter_module.binding("counter")
        # The naming domain must also "link" the library to copy bindings.
        _client_vector(env.name_service.domain)
        obj = EncipheringServer(server).export(CounterImpl(), binding)
        env.bind(server, "/third-party/ciphered", obj)
        resolved = narrow(env.resolve(client, "/third-party/ciphered"), binding)
        assert resolved.add(3) == 3

    def test_server_learns_when_the_last_identifier_goes(self, kernel, counter_module):
        """§7's cleanup story comes with the base: nothing enciphering-
        specific was written to get it."""
        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        _client_vector(client)
        binding = counter_module.binding("counter")
        impl, reclaimed = CounterImpl(), []
        exported = EncipheringServer(server).export(
            impl, binding, unreferenced=reclaimed.append
        )
        obj = ship(kernel, server, client, exported, binding)
        assert obj.add(2) == 2 and reclaimed == []
        obj.spring_consume()
        assert reclaimed == [impl]


class TestDocumentedRecipe:
    """docs/writing-a-subcontract.md §2 prints the server recipe; run the
    printed code so it cannot drift from the base class."""

    def test_server_sample_runs_as_printed(self, env, counter_module):
        guide = pathlib.Path(__file__).parents[2] / "docs" / "writing-a-subcontract.md"
        section = guide.read_text().split("## 2. The server side")[1]
        sample = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        assert "SingleDoorServer" in sample
        printed: dict = {}
        exec(compile(sample, str(guide), "exec"), printed)

        server = env.create_domain("m1", "server")
        client = env.create_domain("m2", "client")
        for domain in (server, client):
            ensure_registry(domain).register(printed["MeteredClient"])
        binding = counter_module.binding("counter")
        metered = printed["MeteredServer"](server)
        reclaimed = []
        exported = metered.export(CounterImpl(), binding, unreferenced=reclaimed.append)
        obj = transfer(exported, client)
        assert obj._subcontract.id == "metered"
        assert obj.add(4) == 4 and obj.total() == 4
        assert metered.calls == 2
        obj.spring_consume()
        assert len(reclaimed) == 1 and metered.exports == {}


class TestAuditingSubcontract:
    def test_traffic_accounted(self, kernel, counter_module):
        server = make_domain(kernel, "server")
        client = make_domain(kernel, "client")
        ensure_registry(client).register(AuditingClient)
        binding = counter_module.binding("counter")
        obj = ship(
            kernel,
            server,
            client,
            AuditingServer(server).export(CounterImpl(), binding),
            binding,
        )
        obj.add(1)
        obj.add(2)
        obj.total()
        log = client.locals["audit_log"]
        assert log.calls == 3
        assert log.bytes_out > 0
        assert log.bytes_in > 0

    def test_base_system_files_untouched(self):
        """The third-party subcontracts import nothing private beyond the
        documented extension points."""
        import inspect
        import sys

        source = inspect.getsource(sys.modules[__name__])
        # No reaching into kernel internals (needles split so this test's
        # own source does not trip itself):
        for needle in ("_deli" + "ver(", "_issue_" + "identifier("):
            assert needle not in source, needle
