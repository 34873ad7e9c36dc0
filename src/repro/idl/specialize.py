"""Specialized stubs for (type, subcontract) combinations (Section 9.1).

"As a future direction, we are interested in providing specialized stubs
for some particularly popular and performance-critical combinations of
types and subcontracts.  We would still keep the general purpose stubs
available for these types, so as to be able to deal with different
subcontracts, but when we were lucky enough to receive an object that
happened to be of the right type and subcontract we would be able to use
the specialized stubs."

:func:`specialize` generates a *fused* stub table for one interface and
one single-door subcontract: the subcontract's invoke is inlined into the
stub, eliminating the method-table indirections, the argument-marshalling
closures, and the two client-side indirect calls Section 9.3 charges.
The table is installed on the interface binding; object fabrication
(:meth:`ClientSubcontract.make_object`) picks it up automatically when —
and only when — the fabricating subcontract matches.  Everything else
keeps the general-purpose stubs, so flexibility is not lost.

Only subcontracts whose representation is a bare door identifier and
whose invoke is a plain door call can be fused this way; that is exactly
the "popular and performance-critical" case the paper has in mind.
"""

from __future__ import annotations

import itertools
import linecache
from typing import TYPE_CHECKING

from repro.idl.codegen import _Emitter, _emit_put, _get_expr
from repro.idl.compiler import IdlModule
from repro.idl.rtypes import OperationSpec

if TYPE_CHECKING:
    from repro.core.object import MethodTable
    from repro.idl.rtypes import InterfaceBinding

__all__ = ["specialize", "FUSABLE_SUBCONTRACTS"]

#: subcontracts whose client vector is exactly "door_call on rep.door"
FUSABLE_SUBCONTRACTS = frozenset({"singleton", "simplex"})

_spec_counter = itertools.count(1)

_HEADER = """\
# Generated by repro.idl.specialize -- fused stubs, do not edit.
from repro.core.stubs import (
    STATUS_EXCEPTION,
    STATUS_OK,
    STATUS_REVOKED,
)
from repro.core.errors import RemoteApplicationError, RevokedObjectError
from repro.idl.genruntime import (
    marshal_door,
    marshal_door_copy,
    marshal_object,
    marshal_object_copy,
    unmarshal_any,
)
"""


#: One fused stub, either side of its argument puts.  When tracing is on
#: it runs inside the client invoke span; untraced, ``_span`` is None and
#: every branch on it falls through.
_STUB_HEAD = """\
def _spec_{iface}_{op}(_obj{params}):
    _domain = _obj._domain
    _kernel = _domain.kernel
    _tracer = _kernel.tracer
    _span = _tracer.begin_invoke(_domain, "{op}", "{scid}", fused=True) if _tracer.enabled else None
    try:
        _buf = _domain.acquire_buffer()
        try:
            _buf.put_string("{op}")
"""
_STUB_TAIL = """\
            if _span is not None:
                _span.attrs["request_bytes"] = _buf.size
            # The fused invoke: what SingleDoorClient.invoke does, inlined.
            _kernel.clock.charge("memory_copy_byte", _buf.size)
            _reply = _kernel.door_call(_domain, _obj._rep.door, _buf)
        finally:
            _buf.recycle()
        if _span is not None:
            _span.attrs["reply_bytes"] = _reply.size
        if _reply.region is None:
            _kernel.clock.charge("memory_copy_byte", _reply.size)
        _status = _reply.get_int8()
        if _status == STATUS_EXCEPTION:
            _exc = RemoteApplicationError(_reply.get_string(), _reply.get_string())
            _reply.recycle()
            raise _exc
        if _status == STATUS_REVOKED:
            _exc = RevokedObjectError(_reply.get_string())
            _reply.recycle()
            raise _exc
        _result = {result}
        _reply.release()
        return _result
    except BaseException as _err:
        if _span is not None:
            _span.record_error(_err)
        raise
    finally:
        if _span is not None:
            _span.end()
"""


def _emit_fused_stub(
    out: _Emitter, iface_name: str, op: OperationSpec, subcontract_id: str
) -> None:
    params = "".join(f", {p.name}" for p in op.params)
    for text in _STUB_HEAD.format(
        iface=iface_name, op=op.name, params=params, scid=subcontract_id
    ).splitlines():
        out.line(text)
    for _ in range(3):
        out.push()
    for param in op.params:
        _emit_put(out, param.type, param.name, "_buf", "_domain", param.mode)
    for _ in range(3):
        out.pop()
    for text in _STUB_TAIL.format(
        result=_get_expr(op.result, "_reply", "_domain")
    ).splitlines():
        out.line(text)
    out.line()


def generate_specialized_source(
    binding: "InterfaceBinding", subcontract_id: str = "singleton"
) -> str:
    """The fused stub source for every operation of ``binding``."""
    out = _Emitter()
    for line in _HEADER.splitlines():
        out.line(line)
    out.line()
    for op in binding.operations.values():
        _emit_fused_stub(out, binding.name, op, subcontract_id)
    return out.source()


def specialize(
    module: IdlModule, interface_name: str, subcontract_id: str
) -> "MethodTable":
    """Generate and install fused stubs for one (type, subcontract) pair.

    Returns the installed method table.  Raises ValueError for
    subcontracts whose invoke cannot be fused into a plain door call.
    """
    if subcontract_id not in FUSABLE_SUBCONTRACTS:
        raise ValueError(
            f"subcontract {subcontract_id!r} cannot be fused into stubs "
            f"(fusable: {sorted(FUSABLE_SUBCONTRACTS)}); its invoke is not "
            f"a bare door call"
        )
    binding = module.binding(interface_name)
    source = generate_specialized_source(binding, subcontract_id)
    filename = f"<idl-specialized:{module.name}.{interface_name}#{next(_spec_counter)}>"
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    # Fused stubs may reference the module's struct helpers and bindings.
    namespace = dict(module._namespace)
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    table = {
        op: namespace[f"_spec_{interface_name}_{op}"] for op in binding.operations
    }
    binding.install_specialized_table(subcontract_id, table)
    return table
