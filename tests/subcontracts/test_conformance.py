"""Subcontract conformance: the uniform client vector contract (§5.1).

Every bundled subcontract must honour the same observable contract so
that "application level programmers need not be aware of the specific
subcontracts that are being used for particular objects" (§1).  This
suite runs one checklist against all of them:

1. exported objects have the Figure-4 structure;
2. the wire form leads with the subcontract ID, and singleton's
   unmarshal routes to it (§6.1 compatibility);
3. transmit moves (sender consumed), state survives;
4. copy yields a second live handle on shared state;
5. consume invalidates the handle;
6. the run-time type query answers the static type.

The second half is the server-side checklist (§5.2, §7): every bundled
``ServerSubcontract`` — found by walking the class tree, so a new one
cannot skip it — rejects unknown export options, and every server with
a door per object notifies ``unreferenced`` exactly once when the last
identifier goes, never on ``revoke``, labels its door
``"<id>:<interface>"`` and forgets the door when it goes.

The third part is the client tail's checklist (§5.1.1-5.1.6), over every
bundled ``ClientSubcontract`` -- found the same way: ``marshal_copy`` is
``copy`` then ``marshal`` (same wire bytes and doors, no more sim time);
copy, give and consume conserve identifiers and door refcounts in both
domains; consume and copy outlive the server's crash; a ``marshal_copy``
recycled undelivered leaves the sender's table as it was; and the last
consume anywhere is what fires the server's ``unreferenced``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pathlib
import pkgutil
import re
from typing import Any, Callable

import pytest

import repro.subcontracts
from repro.core.errors import ObjectConsumedError
from repro.core.object import SpringObject
from repro.core.subcontract import ClientSubcontract, ServerSubcontract
from repro.kernel.errors import CommunicationError, DoorRevokedError, InvalidDoorError
from repro.marshal.buffer import MarshalBuffer
from repro.runtime.faults import crash_domain
from repro.runtime.transfer import give, transfer
from tests.conftest import CounterImpl


class MigratableCounter(CounterImpl):
    def migrate_out(self) -> bytes:
        return json.dumps(self.value).encode()

    @classmethod
    def migrate_in(cls, state: bytes) -> "MigratableCounter":
        impl = cls()
        impl.value = json.loads(state.decode())
        return impl


def _singleton(env, server, binding):
    from repro.subcontracts.singleton import SingletonServer

    return SingletonServer(server).export(CounterImpl(), binding)


def _simplex(env, server, binding):
    from repro.subcontracts.simplex import SimplexServer

    return SimplexServer(server).export(CounterImpl(), binding)


def _cluster(env, server, binding):
    from repro.subcontracts.cluster import ClusterServer

    return ClusterServer(server).export(CounterImpl(), binding)


def _replicon(env, server, binding):
    from repro.subcontracts.replicon import RepliconGroup

    group = RepliconGroup(binding)
    group.add_replica(server, CounterImpl())
    return group.make_object(server)


def _caching(env, server, binding):
    from repro.subcontracts.caching import CachingServer

    return CachingServer(server).export(CounterImpl(), binding)


def _reconnectable(env, server, binding):
    from repro.subcontracts.reconnectable import ReconnectableServer

    return ReconnectableServer(server).export(
        CounterImpl(), binding, name=f"/conf/{server.name}"
    )


def _shm(env, server, binding):
    from repro.subcontracts.shm import ShmServer

    return ShmServer(server).export(CounterImpl(), binding)


def _video(env, server, binding):
    from repro.subcontracts.video import VideoServer

    return VideoServer(server).export(CounterImpl(), binding)


def _realtime(env, server, binding):
    from repro.subcontracts.realtime import RealtimeServer

    return RealtimeServer(server).export(CounterImpl(), binding)


def _transact(env, server, binding):
    from repro.subcontracts.transact import TransactionCoordinator, TransactServer

    return TransactServer(server, TransactionCoordinator()).export(
        CounterImpl(), binding
    )


def _rawnet(env, server, binding):
    from repro.subcontracts.rawnet import RawNetServer

    return RawNetServer(server).export(CounterImpl(), binding)


def _rowa(env, server, binding):
    from repro.subcontracts.rowa import RowaGroup

    group = RowaGroup(binding, read_ops=("total",))
    group.add_replica(server, CounterImpl())
    return group.make_object(server)


def _synchronized(env, server, binding):
    from repro.subcontracts.synchronized import SynchronizedServer

    return SynchronizedServer(server).export(CounterImpl(), binding)


def _migratory(env, server, binding):
    from repro.subcontracts.migratory import MigratoryServer

    obj = MigratoryServer(server).export(MigratableCounter(), binding)
    obj._subcontract.migration_threshold = None  # keep it remote here
    return obj


EXPORTERS = {
    "singleton": _singleton,
    "simplex": _simplex,
    "cluster": _cluster,
    "replicon": _replicon,
    "caching": _caching,
    "reconnectable": _reconnectable,
    "shm": _shm,
    "video": _video,
    "realtime": _realtime,
    "transact": _transact,
    "rawnet": _rawnet,
    "migratory": _migratory,
    "synchronized": _synchronized,
    "rowa": _rowa,
}

ALL = sorted(EXPORTERS)


@pytest.fixture
def world(env, counter_module):
    server = env.create_domain("server-town", "server")
    client = env.create_domain("client-town", "client")
    return env, server, client, counter_module.binding("counter")


@pytest.mark.parametrize("scid", ALL)
class TestConformance:
    def _exported(self, world, scid):
        env, server, client, binding = world
        return env, server, client, binding, EXPORTERS[scid](env, server, binding)

    def test_figure_4_structure(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        assert isinstance(obj, SpringObject)
        assert obj._subcontract.id == scid
        assert set(obj._method_table) >= set(binding.operations)
        assert obj._rep is not None
        assert obj._domain is server

    def test_wire_form_leads_with_id_and_routes(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        buffer = MarshalBuffer(env.kernel)
        obj._subcontract.marshal(obj, buffer)
        buffer.rewind()
        assert buffer.peek_object_header() == scid
        buffer.seal_for_transmission(server)
        # binding's default is singleton; routing must find the code.
        assert binding.default_subcontract_id == "singleton"
        received = binding.unmarshal_from(buffer, client)
        assert received._subcontract.id == scid

    def test_transmit_moves_and_preserves_state(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        assert obj.add(5) == 5
        moved = transfer(obj, client)
        with pytest.raises(ObjectConsumedError):
            obj.total()
        assert moved.total() == 5

    def test_copy_shares_state(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        duplicate = obj.spring_copy()
        obj.add(2)
        assert duplicate.total() == 2
        duplicate.add(1)
        assert obj.total() == 3

    def test_give_through_marshal_copy(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        delivered = give(obj, client)
        obj.add(4)
        assert delivered.total() == 4

    def test_consume_invalidates(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        obj.spring_consume()
        with pytest.raises(ObjectConsumedError):
            obj.add(1)
        with pytest.raises(ObjectConsumedError):
            obj.spring_consume()

    def test_type_query(self, world, scid):
        env, server, client, binding, obj = self._exported(world, scid)
        assert obj.spring_type_id() == "counter"
        assert "counter" in obj._subcontract.type_info(obj)


# ----------------------------------------------------------------------
# the server side (§5.2.1-5.2.3, §7)
# ----------------------------------------------------------------------


def _bundled(root: type) -> list[type]:
    """Every concrete subclass of ``root`` under ``repro.subcontracts``."""
    for module in pkgutil.iter_modules(repro.subcontracts.__path__):
        importlib.import_module(f"repro.subcontracts.{module.name}")
    found, frontier = set(), [root]
    while frontier:
        cls = frontier.pop()
        frontier.extend(cls.__subclasses__())
        if cls.id and cls.__module__.startswith("repro.subcontracts."):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _transact(cls, domain):
    from repro.subcontracts.transact import TransactionCoordinator

    return cls(domain, TransactionCoordinator())


@dataclasses.dataclass(frozen=True)
class ServerRecipe:
    """How the checklist builds and drives one server class."""

    make: Callable[[type, Any], ServerSubcontract] = lambda cls, domain: cls(domain)
    impl: type = CounterImpl
    options: dict = dataclasses.field(default_factory=dict)
    #: drop identifiers the export parked elsewhere (the naming service)
    release: Callable[[Any], None] = lambda domain: None
    #: False for servers that multiplex objects over something shared
    door_per_object: bool = True


SERVER_RECIPES = {
    "SingletonServer": ServerRecipe(),
    "SimplexServer": ServerRecipe(),
    "RealtimeServer": ServerRecipe(),
    "SynchronizedServer": ServerRecipe(),
    "ShmServer": ServerRecipe(),
    "VideoServer": ServerRecipe(),
    "CachingServer": ServerRecipe(),
    "TransactServer": ServerRecipe(make=_transact),
    "ReconnectableServer": ServerRecipe(
        options={"name": "/conf/served"},
        release=lambda domain: domain.locals["naming_root"].unbind("/conf/served"),
    ),
    "MigratoryServer": ServerRecipe(impl=MigratableCounter),
    "ClusterServer": ServerRecipe(door_per_object=False),
    "RawNetServer": ServerRecipe(door_per_object=False),
}

SERVERS = _bundled(ServerSubcontract)
DOOR_SERVERS = [
    cls
    for cls in SERVERS
    if SERVER_RECIPES.get(cls.__name__, ServerRecipe()).door_per_object
]
SHARED_SERVERS = [cls for cls in SERVERS if cls not in DOOR_SERVERS]


def _by_name(cls: type) -> str:
    return cls.__name__


class ServedWorld:
    """One server of ``cls`` in the conformance world, ready to export."""

    def __init__(self, world, cls: type) -> None:
        self.env, self.server, self.client, self.binding = world
        recipe = SERVER_RECIPES.get(cls.__name__)
        if recipe is None:
            pytest.fail(f"{cls.__name__} has no entry in SERVER_RECIPES")
        self.recipe = recipe
        self.subcontract = recipe.make(cls, self.server)
        self.door = None

    def export(self, impl=None, **options):
        """Export ``impl`` and note the one kernel door that made."""
        doors = self.env.kernel.doors
        before = set(doors)
        impl = self.recipe.impl() if impl is None else impl
        obj = self.subcontract.export(
            impl, self.binding, **self.recipe.options, **options
        )
        created = [doors[uid] for uid in set(doors) - before]
        self.door = created[0] if len(created) == 1 else None
        return obj

    def drop_last_identifier(self, obj, where: str) -> None:
        if where == "remote":
            obj = transfer(obj, self.client)
        obj.spring_consume()
        self.recipe.release(self.server)

    def door_tables(self) -> list[dict]:
        """The server's per-door tables, which must not outlive a door."""
        subcontract = self.subcontract
        return [subcontract.exports, getattr(subcontract, "locks", {})]


def test_every_bundled_server_has_a_recipe():
    assert {cls.__name__ for cls in SERVERS} == set(SERVER_RECIPES)
    assert len(DOOR_SERVERS) >= 10 and len(SHARED_SERVERS) == 2


@pytest.mark.parametrize("cls", SERVERS, ids=_by_name)
def test_unknown_export_option_is_refused(world, cls):
    served = ServedWorld(world, cls)
    with pytest.raises(TypeError):
        served.export(no_such_option=True)


@pytest.mark.parametrize("cls", SHARED_SERVERS, ids=_by_name)
def test_shared_servers_refuse_unreferenced(world, cls):
    """No door per object, so no per-object notification: say so."""
    served = ServedWorld(world, cls)
    with pytest.raises(TypeError):
        served.export(unreferenced=lambda impl: None)


@pytest.mark.parametrize("cls", DOOR_SERVERS, ids=_by_name)
class TestDoorPerObjectServer:
    @pytest.mark.parametrize("where", ["local", "remote"])
    def test_unreferenced_callback_fires_once(self, world, cls, where):
        served = ServedWorld(world, cls)
        impl, reclaimed = served.recipe.impl(), []
        obj = served.export(impl, unreferenced=reclaimed.append)
        spare = obj.spring_copy()
        served.drop_last_identifier(obj, where)
        assert reclaimed == []  # the copy still names the door
        spare.spring_consume()
        assert reclaimed == [impl]
        assert served.door_tables() == [{}, {}]

    @pytest.mark.parametrize("where", ["local", "remote"])
    def test_spring_unreferenced_fires_once(self, world, cls, where):
        class Reclaimable(SERVER_RECIPES[cls.__name__].impl):
            reclaimed = 0

            def _spring_unreferenced(self):
                self.reclaimed += 1

        served = ServedWorld(world, cls)
        impl = Reclaimable()
        served.drop_last_identifier(served.export(impl), where)
        assert impl.reclaimed == 1
        assert served.door_tables() == [{}, {}]

    def test_revoke_fails_calls_forgets_the_door_and_does_not_notify(
        self, world, cls
    ):
        served = ServedWorld(world, cls)
        reclaimed = []
        obj = served.export(unreferenced=reclaimed.append)
        remote = give(obj, served.client)
        assert served.door_tables()[0] != {}
        served.subcontract.revoke(obj)
        assert served.door_tables() == [{}, {}]
        with pytest.raises((InvalidDoorError, CommunicationError)) as failure:
            remote.total()
        # reconnectable re-resolves and retries before it gives up
        chain = (failure.value, failure.value.__cause__)
        assert any(isinstance(error, DoorRevokedError) for error in chain)
        remote.spring_consume()
        served.drop_last_identifier(obj, "local")
        assert reclaimed == []

    def test_door_label_names_subcontract_and_interface(self, world, cls):
        served = ServedWorld(world, cls)
        served.export()
        assert served.door.label == f"{cls.id}:{served.binding.name}"


# ----------------------------------------------------------------------
# the client tail (§5.1.1-5.1.6)
# ----------------------------------------------------------------------


def _simplex_inline(env, server, binding):
    from repro.subcontracts.simplex import SimplexServer

    return SimplexServer(server).export(CounterImpl(), binding, inline=True)


@dataclasses.dataclass(frozen=True)
class ClientRecipe:
    """How the checklist gets an object driven by one client vector."""

    export: Callable[[Any, Any, Any], SpringObject]
    #: the door-per-object server whose ``unreferenced`` the last consume
    #: must fire; None where no per-object notification exists
    server: str | None = None
    #: False for the one vector that only ever lives beside its impl
    travels: bool = True


CLIENT_RECIPES = {
    "SingletonClient": ClientRecipe(_singleton, "SingletonServer"),
    "SimplexClient": ClientRecipe(_simplex, "SimplexServer"),
    "SimplexInlineVector": ClientRecipe(_simplex_inline, travels=False),
    "RealtimeClient": ClientRecipe(_realtime, "RealtimeServer"),
    "SynchronizedClient": ClientRecipe(_synchronized, "SynchronizedServer"),
    "ShmClient": ClientRecipe(_shm, "ShmServer"),
    "VideoClient": ClientRecipe(_video, "VideoServer"),
    # (the module-level ``_transact`` is by now the server recipe's maker)
    "TransactClient": ClientRecipe(EXPORTERS["transact"], "TransactServer"),
    "CachingClient": ClientRecipe(_caching, "CachingServer"),
    "ReconnectableClient": ClientRecipe(_reconnectable, "ReconnectableServer"),
    "MigratoryClient": ClientRecipe(_migratory, "MigratoryServer"),
    "ClusterClient": ClientRecipe(_cluster),
    "RawNetClient": ClientRecipe(_rawnet),
    "RepliconClient": ClientRecipe(_replicon),
    "RowaClient": ClientRecipe(_rowa),
}

CLIENTS = _bundled(ClientSubcontract)
_RECIPES = [CLIENT_RECIPES.get(cls.__name__, ClientRecipe(None)) for cls in CLIENTS]
TRAVELLING = [cls for cls, recipe in zip(CLIENTS, _RECIPES) if recipe.travels]
NOTIFYING = [cls for cls, recipe in zip(CLIENTS, _RECIPES) if recipe.server]


def test_every_bundled_client_has_a_recipe():
    assert {cls.__name__ for cls in CLIENTS} == set(CLIENT_RECIPES)
    assert len(CLIENTS) >= 15 and len(NOTIFYING) >= 10


class HeldWorld:
    """An object of vector ``cls``: held in the client domain when the
    vector travels, beside its impl when it does not; ``peer`` is the
    other domain."""

    def __init__(self, world, cls: type, obj: SpringObject | None = None) -> None:
        self.env, self.server, client, self.binding = world
        recipe = CLIENT_RECIPES.get(cls.__name__)
        if recipe is None:
            pytest.fail(f"{cls.__name__} has no entry in CLIENT_RECIPES")
        self.holder, self.peer = (
            (client, self.server) if recipe.travels else (self.server, client)
        )
        #: identifiers the holder owned before the object reached it
        self.owned_before = len(self.holder.door_ids)
        if obj is None:
            obj = recipe.export(self.env, self.server, self.binding)
        if recipe.travels:
            obj = transfer(obj, client)
        assert type(obj._subcontract) is cls
        self.obj = obj

    def ledger(self) -> tuple:
        """Identifiers each domain owns and every live door's refcount."""
        return (
            len(self.holder.door_ids),
            len(self.peer.door_ids),
            {uid: door.refcount for uid, door in self.env.kernel.doors.items() if door.refcount},
        )

    def marshalled(self, fused: bool) -> tuple[MarshalBuffer, dict]:
        """The object's copy on the wire, and what putting it there cost."""
        clock = self.env.kernel.clock
        clock.reset_tally()
        buffer = MarshalBuffer(self.env.kernel)
        vector = self.obj._subcontract
        if fused:
            vector.marshal_copy(self.obj, buffer)
        else:
            vector.marshal(vector.copy(self.obj), buffer)
        return buffer, clock.tally()


@pytest.mark.parametrize("cls", CLIENTS, ids=_by_name)
class TestClientTail:
    def test_marshal_copy_is_copy_then_marshal(self, world, cls):
        held = HeldWorld(world, cls)
        fused, fused_cost = held.marshalled(fused=True)
        plain, plain_cost = held.marshalled(fused=False)
        assert bytes(fused.data) == bytes(plain.data)
        assert fused.live_door_count() == plain.live_door_count()
        assert set(fused_cost) <= set(plain_cost)
        for event, spent_us in fused_cost.items():
            assert spent_us <= plain_cost[event] + 1e-9, event
        assert held.obj.total() == 0  # the original is still whole

    def test_copy_then_consume_conserves_identifiers(self, world, cls):
        held = HeldWorld(world, cls)
        before = held.ledger()
        duplicate = held.obj.spring_copy()
        assert duplicate.add(1) == 1 and held.obj.total() == 1
        duplicate.spring_consume()
        assert held.ledger() == before

    def test_give_then_consume_conserves_identifiers(self, world, cls):
        held = HeldWorld(world, cls)
        before = held.ledger()
        given = give(held.obj, held.peer)
        assert given.add(1) == 1 and held.obj.total() == 1
        given.spring_consume()
        assert held.ledger() == before

    def test_recycled_marshal_copy_leaves_the_sender_unchanged(self, world, cls):
        held = HeldWorld(world, cls)
        before = held.ledger()
        buffer, _ = held.marshalled(fused=True)
        buffer.recycle()
        assert held.ledger() == before
        assert held.obj.total() == 0


@pytest.mark.parametrize("cls", TRAVELLING, ids=_by_name)
def test_copy_and_consume_outlive_the_server(world, cls):
    held = HeldWorld(world, cls)
    owned = len(held.holder.door_ids)
    crash_domain(held.server)
    duplicate = held.obj.spring_copy()
    duplicate.spring_consume()
    assert len(held.holder.door_ids) == owned
    held.obj.spring_consume()
    assert len(held.holder.door_ids) == held.owned_before


@pytest.mark.parametrize("cls", NOTIFYING, ids=_by_name)
def test_last_consume_anywhere_fires_unreferenced_once(world, cls):
    recipe = CLIENT_RECIPES[cls.__name__]
    served = ServedWorld(world, next(s for s in SERVERS if s.__name__ == recipe.server))
    impl, reclaimed = served.recipe.impl(), []
    held = HeldWorld(world, cls, served.export(impl, unreferenced=reclaimed.append))
    spare = give(held.obj, held.peer)
    held.obj.spring_consume()
    served.recipe.release(served.server)
    assert reclaimed == []  # the copy in the other domain still names the door
    spare.spring_consume()
    assert reclaimed == [impl]


def test_documented_client_sample_inherits_the_tail(world):
    """docs/writing-a-subcontract.md §1 prints a rep with its hooks and a
    vector that inherits the tail; run the printed code."""
    from repro.core.registry import ensure_registry
    from repro.subcontracts.singleton import SingleDoorServer

    guide = pathlib.Path(__file__).parents[2] / "docs" / "writing-a-subcontract.md"
    section = guide.read_text().split("## 1. The client operations vector")[1]
    sample = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed: dict = {}
    exec(compile(sample, str(guide), "exec"), printed)

    class TaggedServer(SingleDoorServer):
        id = "tagged"

        def make_rep(self, door_id, binding):
            return printed["TaggedRep"](door_id, 7)

    env, server, client, binding = world
    for domain in (server, client):
        ensure_registry(domain).register(printed["TaggedClient"])
    reclaimed = []
    exported = TaggedServer(server).export(CounterImpl(), binding, unreferenced=reclaimed.append)
    obj = transfer(exported, client)
    handles = [obj, obj.spring_copy(), give(obj, server)]
    assert [handle._rep.tag for handle in handles] == [7, 7, 7]
    assert [handle.add(1) for handle in handles] == [1, 2, 3]
    for handle in handles:
        assert reclaimed == []
        handle.spring_consume()
    assert len(reclaimed) == 1
