"""Specialized stubs (Section 9.1's future direction, implemented)."""

from __future__ import annotations

import pytest

from repro.core.errors import RemoteApplicationError
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.marshal.buffer import MarshalBuffer
from repro.subcontracts.simplex import SimplexServer
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import COUNTER_IDL, ECHO_IDL, CounterImpl, EchoImpl, make_domain


@pytest.fixture
def module():
    return compile_idl(COUNTER_IDL, "spec_counter")


@pytest.fixture
def world(kernel, module):
    server = make_domain(kernel, "server")
    client = make_domain(kernel, "client")
    return kernel, server, client, module


def ship(kernel, src, dst, obj, binding):
    buffer = MarshalBuffer(kernel)
    obj._subcontract.marshal(obj, buffer)
    buffer.seal_for_transmission(src)
    return binding.unmarshal_from(buffer, dst)


class TestSpecialization:
    def test_specialized_table_used_for_matching_subcontract(self, world):
        kernel, server, client, module = world
        binding = module.binding("counter")
        table = specialize(module, "counter", "singleton")
        obj = ship(
            kernel,
            server,
            client,
            SingletonServer(server).export(CounterImpl(), binding),
            binding,
        )
        assert obj._method_table is table
        assert obj.add(5) == 5
        assert obj.total() == 5

    def test_other_subcontracts_keep_general_stubs(self, world):
        kernel, server, client, module = world
        binding = module.binding("counter")
        specialize(module, "counter", "singleton")
        obj = ship(
            kernel,
            server,
            client,
            SimplexServer(server).export(CounterImpl(), binding),
            binding,
        )
        # simplex was not specialized: general table, still fully working.
        assert obj._method_table is binding.remote_method_table()
        assert obj.add(2) == 2

    def test_specialized_skips_the_indirect_calls(self, world):
        """The fused path eliminates exactly the Section 9.3 charges."""
        kernel, server, client, module = world
        binding = module.binding("counter")
        general = ship(
            kernel,
            server,
            client,
            SingletonServer(server).export(CounterImpl(), binding),
            binding,
        )
        kernel.clock.reset_tally()
        general.total()
        general_indirect = kernel.clock.tally()["indirect_call"]

        specialize(module, "counter", "singleton")
        fused = ship(
            kernel,
            server,
            client,
            SingletonServer(server).export(CounterImpl(), binding),
            binding,
        )
        kernel.clock.reset_tally()
        fused.total()
        fused_indirect = kernel.clock.tally().get("indirect_call", 0.0)

        model = kernel.clock.model
        # general: 2 client-side + 1 server-side; fused: server-side only.
        assert general_indirect == pytest.approx(3 * model.indirect_call_us)
        assert fused_indirect == pytest.approx(model.indirect_call_us)

    def test_remote_exceptions_still_cross(self, kernel):
        module = compile_idl("interface risky { void boom(); }", "spec_risky")
        specialize(module, "risky", "singleton")
        server = make_domain(kernel, "server")

        class Impl:
            def boom(self):
                raise ValueError("pow")

        obj = SingletonServer(server).export(Impl(), module.binding("risky"))
        with pytest.raises(RemoteApplicationError, match="pow"):
            obj.boom()

    def test_revocation_still_detected(self, world):
        from repro.kernel import DoorRevokedError

        kernel, server, client, module = world
        binding = module.binding("counter")
        specialize(module, "counter", "singleton")
        subcontract_server = SingletonServer(server)
        exported = subcontract_server.export(CounterImpl(), binding)
        keeper = exported.spring_copy()
        remote = ship(kernel, server, client, exported, binding)
        subcontract_server.revoke(keeper)
        with pytest.raises(DoorRevokedError):
            remote.total()

    def test_complex_types_survive_fusion(self, kernel):
        module = compile_idl(ECHO_IDL, "spec_echo")
        specialize(module, "echo", "simplex")
        server = make_domain(kernel, "server")
        obj = SimplexServer(server).export(EchoImpl(), module.binding("echo"))
        seg = module.segment(
            a=module.point(x=1.0, y=2.0),
            b=module.point(x=3.0, y=4.0),
            label="s",
        )
        flipped = obj.swap_ends(seg)
        assert flipped.a == seg.b
        assert obj.nest([["a"], []]) == [["a"], []]
        assert obj.nothing() is None

    def test_unfusable_subcontract_rejected(self, module):
        with pytest.raises(ValueError, match="cannot be fused"):
            specialize(module, "counter", "replicon")

    def test_narrow_picks_specialized_table(self, world):
        kernel, server, client, module = world
        binding = module.binding("counter")
        table = specialize(module, "counter", "singleton")
        from repro.core import narrow
        from repro.idl.genruntime import ANY_BINDING
        from repro.core.object import SpringObject

        exported = SingletonServer(server).export(CounterImpl(), binding)
        obj = ship(kernel, server, client, exported, binding)
        generic = SpringObject(
            domain=obj._domain,
            method_table={},
            subcontract=obj._subcontract,
            rep=obj._rep,
            binding=ANY_BINDING,
        )
        narrowed = narrow(generic, binding)
        assert narrowed._method_table is table
        assert narrowed.add(1) == 1

    @pytest.mark.parametrize("specialized", [False, True])
    def test_narrowed_inline_object_stays_inline(self, kernel, specialized):
        """Section 5.2.1: narrowing an inline simplex object keeps it
        inline — it calls the implementation, creates no door and makes no
        door call — even when the target type has fused simplex stubs."""
        from repro.core import narrow

        module = compile_idl(
            "interface base { int32 one(); } interface derived : base { int32 two(); }",
            "spec_inline",
        )
        server = make_domain(kernel, "server")

        class Impl:
            def one(self):
                return 1

            def two(self):
                return 2

        obj = SimplexServer(server).export(Impl(), module.binding("derived"), inline=True)
        if specialized:
            specialize(module, "base", "simplex")
        kernel.clock.reset_tally()
        narrowed = narrow(obj, module.binding("base"))
        assert narrowed.one() == 1
        assert narrowed._rep.door is None
        assert "door_call" not in kernel.clock.tally()
