"""Cache manager service behaviour."""

from __future__ import annotations

import pytest

from repro.core import narrow
from repro.marshal.buffer import MarshalBuffer
from repro.services.cachemgr import CacheManagerService, cache_manager_binding
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import make_domain


class Backend:
    """A trivial server whose reads we cache by hand-built door calls."""

    def __init__(self):
        self.value = "v1"
        self.reads = 0

    def get(self):
        self.reads += 1
        return self.value

    def set(self, value):
        self.value = value


BACKEND_IDL = "interface backend { string get(); void set(string value); }"


@pytest.fixture
def world(kernel, counter_module):
    from repro.idl.compiler import compile_idl

    module = compile_idl(BACKEND_IDL, "cache_backend")
    server = make_domain(kernel, "server")
    manager_domain = make_domain(kernel, "manager")
    client = make_domain(kernel, "client")
    service = CacheManagerService(manager_domain, cacheable_ops=("get",))
    backend = Backend()
    exported = SingletonServer(server).export(backend, module.binding("backend"))
    return kernel, service, client, exported, backend, module


def manager_stub_for(kernel, service, domain):
    buffer = MarshalBuffer(kernel)
    service.manager._subcontract.marshal_copy(service.manager, buffer)
    buffer.seal_for_transmission(service.domain)
    return cache_manager_binding().unmarshal_from(buffer, domain)


class TestRegistration:
    def test_register_returns_front_door(self, world):
        kernel, service, client, exported, backend, module = world
        manager = manager_stub_for(kernel, service, client)
        d1 = kernel.copy_door_id(exported._domain, exported._rep.door)
        transit = kernel.detach_door_id(exported._domain, d1)
        d1_client = kernel.attach_door_id(client, transit)
        d2 = manager.register_cache(d1_client)
        assert client.owns(d2)
        assert d2.door.server is service.domain
        assert len(service.impl.fronts) == 1

    def test_duplicate_registration_reuses_front(self, world):
        kernel, service, client, exported, backend, module = world
        manager = manager_stub_for(kernel, service, client)

        def present():
            d1 = kernel.copy_door_id(exported._domain, exported._rep.door)
            transit = kernel.detach_door_id(exported._domain, d1)
            return manager.register_cache(kernel.attach_door_id(client, transit))

        d2_a = present()
        d2_b = present()
        assert d2_a.door is d2_b.door
        assert len(service.impl.fronts) == 1


class TestFrontBehaviour:
    def _front_object(self, world):
        """Build a client object whose calls go through the front door."""
        kernel, service, client, exported, backend, module = world
        manager = manager_stub_for(kernel, service, client)
        d1 = kernel.copy_door_id(exported._domain, exported._rep.door)
        transit = kernel.detach_door_id(exported._domain, d1)
        d2 = manager.register_cache(kernel.attach_door_id(client, transit))
        from repro.core.registry import ensure_registry
        from repro.subcontracts.common import SingleDoorRep

        vector = ensure_registry(client).lookup("singleton")
        return vector.make_object(SingleDoorRep(d2), module.binding("backend"))

    def test_cache_hit_skips_server(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        assert front.get() == "v1"
        assert front.get() == "v1"
        assert backend.reads == 1
        assert service.impl.hit_count == 1
        assert service.impl.miss_count == 1

    def test_write_invalidates(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        assert front.get() == "v1"
        front.set("v2")
        assert front.get() == "v2"
        assert backend.reads == 2

    def test_front_buffers_come_from_and_return_to_the_manager_pool(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        domain = service.domain
        acquires, releases = domain.buffer_acquires, domain.buffer_releases
        assert front.get() == "v1"  # miss: one forward
        assert front.get() == "v1"  # hit: one reply
        front.set("v2")  # invalidating write: one forward
        assert front.get() == "v2"  # miss: one forward
        assert domain.buffer_acquires - acquires == 4
        assert domain.buffer_releases - releases == 4
        assert domain.buffer_acquires == domain.buffer_releases

    def test_flush_invalidates_on_demand(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        manager = manager_stub_for(kernel, service, client)
        front.get()
        d1 = kernel.copy_door_id(exported._domain, exported._rep.door)
        transit = kernel.detach_door_id(exported._domain, d1)
        manager.flush(kernel.attach_door_id(client, transit))
        front.get()
        assert backend.reads == 2

    def test_flush_all(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        front.get()
        service.impl.flush_all()
        front.get()
        assert backend.reads == 2

    def test_stats_over_the_wire(self, world):
        kernel, service, client, exported, backend, module = world
        front = self._front_object(world)
        manager = manager_stub_for(kernel, service, client)
        front.get()
        front.get()
        assert manager.hits() == 1
        assert manager.misses() == 1
        assert "get" in manager.cacheable_ops()

    def test_set_cacheable_over_the_wire(self, world):
        kernel, service, client, exported, backend, module = world
        manager = manager_stub_for(kernel, service, client)
        manager.set_cacheable(["get", "stat"])
        assert manager.cacheable_ops() == ["get", "stat"]
