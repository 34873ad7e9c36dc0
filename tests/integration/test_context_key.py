"""The thesis test for the call context: a key from outside ``src/``.

``tests/tenant.py`` defines a ``tenant`` key — id, codec, a context
manager that stamps it, a server that refuses calls without it — with no
edit under ``src/``.  These tests show it crossing every transport the
base offers (a local door, a two-machine sim fabric, a worker process),
refused where it is absent, and inherited by a handler's own calls as
its registration says.  ``docs/architecture.md`` prints the same code as
its "Adding a context key" sample, and the last test executes that copy.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import re

import pytest

from repro.core.errors import RemoteApplicationError
from repro.idl.compiler import compile_idl
from repro.kernel.errors import CommunicationError
from repro.marshal import context
from repro.runtime.env import Environment
from repro.runtime.transfer import transfer
from tests import tenant as tenant_module
from tests.tenant import (
    TENANT,
    TenantRefused,
    TenantServer,
    current_tenant,
    tenant,
)

TENANCY_IDL = """
interface tenancy {
    string whoami();
    string relay();
}
"""

tenancy_module = compile_idl(TENANCY_IDL, "context_key_tenancy")
BINDING = tenancy_module.binding("tenancy")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process fabric requires the fork start method",
)


class TenancyImpl:
    """Answers which tenant its handler runs for; ``relay`` asks a
    second tenant-only object the same question, from inside the call."""

    def __init__(self, kernel, inner=None):
        self.kernel = kernel
        self.inner = inner

    def whoami(self):
        return current_tenant(self.kernel) or ""

    def relay(self):
        return self.inner.whoami()


def export_tenancy(env, server, inner_domain):
    """A tenant-only relay in ``server`` over a tenant-only object."""
    kernel = env.kernel
    inner = TenantServer(inner_domain).export(TenancyImpl(kernel), BINDING)
    relay = TenancyImpl(kernel, transfer(inner, server))
    return TenantServer(server).export(relay, BINDING)


def worker_bootstrap(env, index):
    server = env.create_domain("w", "server")
    return {"tenancy": export_tenancy(env, server, env.create_domain("w", "inner"))}


@pytest.fixture(params=["local", "fabric", pytest.param("worker", marks=needs_fork)])
def world(request):
    """``(kernel, proxy)``: the client's stub for the relay, reached
    through one transport."""
    if request.param == "worker":
        env = Environment(latency_us=0.0, transport="proc")
        fabric = env.install_procfabric(worker_bootstrap, workers=1)
        client = env.create_domain("m0", "client")
        yield env.kernel, fabric.bind(client, "tenancy", BINDING)
        env.uninstall_procfabric()
        return
    env = Environment()
    server = env.create_domain("south", "server")
    client = env.create_domain("north" if request.param == "fabric" else "south", "client")
    exported = export_tenancy(env, server, env.create_domain("south", "inner"))
    yield env.kernel, transfer(exported, client)


def test_tenant_crosses_to_the_handler(world):
    kernel, proxy = world
    with tenant(kernel, "acme"):
        assert proxy.whoami() == "acme"
    assert current_tenant(kernel) is None


def test_a_call_naming_no_tenant_is_refused(world):
    kernel, proxy = world
    # In a worker the refusal crosses back as a communication failure
    # that still names the reason.
    with pytest.raises((TenantRefused, CommunicationError), match="names no tenant"):
        proxy.whoami()


def test_nested_calls_inherit_the_tenant_as_registered(world):
    kernel, proxy = world
    assert TENANT not in context.HOP_KEYS
    with tenant(kernel, "acme"):
        assert proxy.relay() == "acme"


def test_a_per_hop_tenant_does_not_reach_nested_calls(scratch_keys):
    # The same key registered per hop: the call still names its tenant,
    # so the door admits it, but the handler's thread context does not
    # hold the key and the relay's own call names none: refused, and the
    # refusal reaches the client as the relay's application error.
    del context.KEYS[TENANT]
    context.register_key(
        TENANT,
        "tenant",
        encode=lambda name, now_us: name.encode("utf-8"),
        decode=lambda data, now_us: bytes(data).decode("utf-8"),
        inherit=False,
    )
    env = Environment()
    server = env.create_domain("south", "server")
    exported = export_tenancy(env, server, env.create_domain("south", "inner"))
    proxy = transfer(exported, env.create_domain("north", "client"))
    with tenant(env.kernel, "acme"):
        assert proxy.whoami() == ""
        with pytest.raises(RemoteApplicationError, match="TenantRefused"):
            proxy.relay()


def test_a_key_id_registers_once():
    with pytest.raises(ValueError, match="already registered as 'tenant'"):
        context.register_key(
            TENANT, "tenant-again", encode=None, decode=None, inherit=True
        )
    with pytest.raises(ValueError, match="1..255"):
        context.register_key(256, "wide", encode=None, decode=None, inherit=True)


class TestDocumentedRecipe:
    """docs/architecture.md's "Adding a context key" prints tests/tenant.py;
    run the printed code so neither can drift."""

    def test_key_sample_runs_as_printed(self, scratch_keys):
        guide = pathlib.Path(__file__).parents[2] / "docs" / "architecture.md"
        section = guide.read_text().split("## Adding a context key")[1]
        sample = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        source = pathlib.Path(tenant_module.__file__).read_text()
        assert sample == source.split("# -- sample --\n")[1]
        del context.KEYS[TENANT]  # the printed copy registers the same id
        printed: dict = {}
        exec(compile(sample, str(guide), "exec"), printed)

        env = Environment()
        server = env.create_domain("south", "server")
        client = env.create_domain("north", "client")
        proxy = transfer(
            printed["TenantServer"](server).export(TenancyImpl(env.kernel), BINDING),
            client,
        )
        with pytest.raises(printed["TenantRefused"]):
            proxy.whoami()
        with printed["tenant"](env.kernel, "acme"):
            assert proxy.whoami() == "acme"
