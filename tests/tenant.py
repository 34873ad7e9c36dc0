"""A call-context key defined entirely outside ``src/``: the tenant.

The code below the marker is printed, verbatim, as the sample of the
"Adding a context key" section of ``docs/architecture.md``;
``tests/integration/test_context_key.py`` executes the printed copy and
drives this one across every transport.
"""

# -- sample --
import contextlib

from repro.kernel.errors import KernelError
from repro.marshal.context import register_key
from repro.subcontracts.singleton import SingletonServer

#: the key's name on the wire: one byte, registered once per process
TENANT = register_key(
    0x40,
    "tenant",
    encode=lambda name, now_us: name.encode("utf-8"),
    decode=lambda data, now_us: bytes(data).decode("utf-8"),
    inherit=True,  # a handler's own calls act for the same tenant
)


class TenantRefused(KernelError):
    """A call reached a tenant-only door without naming its tenant."""


@contextlib.contextmanager
def tenant(kernel, name):
    """Every call this thread makes inside the block acts for ``name``."""
    local = kernel.context
    prior = local.value
    local.value = {**(prior or {}), TENANT: name}
    try:
        yield name
    finally:
        local.value = prior


def current_tenant(kernel):
    """The tenant the calling thread acts for, or ``None``."""
    ctx = kernel.context.value
    return ctx.get(TENANT) if ctx is not None else None


class TenantServer(SingletonServer):
    """Singleton doors that refuse, before the skeleton runs, any call
    that names no tenant."""

    def wrap_handler(self, inner, impl, binding):
        def handler(request):
            ctx = request.ctx
            if ctx is None or TENANT not in ctx:
                raise TenantRefused(f"{binding.name}: the call names no tenant")
            return inner(request)

        return handler
