"""Stub runtime support.

Generated client stubs and server skeletons (from :mod:`repro.idl`) are
thin: the call protocol they share lives here.  The logical progression of
a call matches Figure 3 of the paper:

    application
      -> stub method                 (method table entry)
      -> subcontract.invoke_preamble (indirect call #1, Section 9.3)
      -> [stub marshals op name + arguments]
      -> subcontract.invoke          (indirect call #2)
      -> kernel door / network fabric
      -> server-side subcontract     (door handler)
      -> server stubs (skeleton)     (indirect call #3)
      -> server application

and the reply retraces the path.  The two client-side indirect calls and
one server-side indirect call are exactly the overhead Section 9.3
attributes to subcontract; the simulated clock charges them here so the
E1 bench can reproduce that accounting.

Wire format of a request, after any subcontract control written by
``invoke_preamble``:

    STRING opname, then the operation's marshalled arguments

and of a reply, after any subcontract control written by the server side:

    INT8 status (0 = ok, 1 = application exception)
    on ok:        the marshalled results
    on exception: STRING remote type name, STRING message
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.errors import NarrowError, RemoteApplicationError, RevokedObjectError
from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding
    from repro.kernel.domain import Domain

__all__ = [
    "STATUS_OK",
    "STATUS_EXCEPTION",
    "STATUS_REVOKED",
    "TYPE_QUERY_OP",
    "remote_call",
    "remote_type_query",
    "narrow",
    "write_ok_status",
    "write_exception_status",
    "write_revoked_status",
]

STATUS_OK = 0
STATUS_EXCEPTION = 1
STATUS_REVOKED = 2

#: Reserved operation name handled by every skeleton: returns the
#: implementation's most-derived type name and its ancestors, enabling
#: the run-time narrow of Section 6.3.
TYPE_QUERY_OP = "_spring_type_query"


def remote_call(
    obj: SpringObject,
    opname: str,
    marshal_args: Callable[[MarshalBuffer], None],
    unmarshal_results: Callable[[MarshalBuffer, "Domain"], Any],
) -> Any:
    """Drive one object invocation through the subcontract vector.

    When tracing is on the call runs inside the client-side invoke span
    (the root of a fresh trace, or a child of the thread's current span
    when called from inside a handler); untraced, ``span`` is ``None``
    and every branch on it falls through.
    """
    obj._check_live()
    domain = obj._domain
    kernel = domain.kernel
    clock = kernel.clock
    subcontract = obj._subcontract
    tracer = kernel.tracer
    span = (
        tracer.begin_invoke(domain, opname, subcontract.id)
        if tracer.enabled
        else None
    )
    try:
        buffer = domain.acquire_buffer()
        try:
            clock.charge("indirect_call")  # stubs -> subcontract (preamble)
            subcontract.invoke_preamble(obj, buffer)
            buffer.put_string(opname)
            marshal_args(buffer)
            if span is not None:
                span.attrs["request_bytes"] = buffer.size
            clock.charge("indirect_call")  # stubs -> subcontract (invoke)
            reply = subcontract.invoke(obj, buffer)
        finally:
            # The request is fully consumed once invoke returns (or failed
            # before transmission).  A failed call may leave marshalled door
            # arguments in transit; recycle discards them (so unreferenced
            # notifications still fire) before pooling the buffer.
            buffer.recycle()

        if span is not None:
            span.attrs["reply_bytes"] = reply.size
        status = reply.get_int8()
        if status == STATUS_EXCEPTION:
            remote_type = reply.get_string()
            message = reply.get_string()
            reply.recycle()
            raise RemoteApplicationError(remote_type, message)
        if status == STATUS_REVOKED:
            message = reply.get_string()
            reply.recycle()
            raise RevokedObjectError(message)
        results = unmarshal_results(reply, domain)
        reply.release()
        return results
    except BaseException as exc:
        if span is not None:
            span.record_error(exc)
        raise
    finally:
        if span is not None:
            span.end()


def remote_type_query(obj: SpringObject) -> tuple[str, ...]:
    """Ask the server for the object's most-derived type and ancestors."""

    def marshal_args(buffer: MarshalBuffer) -> None:
        pass

    def unmarshal_results(reply: MarshalBuffer, domain: "Domain") -> tuple[str, ...]:
        count = reply.get_sequence_header()
        return tuple(reply.get_string() for _ in range(count))

    return remote_call(obj, TYPE_QUERY_OP, marshal_args, unmarshal_results)


def narrow(obj: SpringObject, target: "InterfaceBinding") -> SpringObject:
    """Run-time narrow (Section 6.3).

    Clients holding an object at a statically determined type (say,
    ``file``) may attempt to narrow it to a subtype with richer semantics
    (say, ``replicated_file``).  On success the original handle is
    consumed and a new Spring object of the target type — sharing the same
    subcontract and representation — is returned; on failure the original
    object is left untouched and :class:`NarrowError` is raised.
    """
    obj._check_live()
    supported = obj._subcontract.type_info(obj)
    if target.name not in supported:
        raise NarrowError(
            f"object of type {supported[0]!r} does not support {target.name!r}"
        )
    narrowed = target.stub_class(
        domain=obj._domain,
        method_table=target.method_table_for(obj._subcontract.id),
        subcontract=obj._subcontract,
        rep=obj._rep,
        binding=target,
    )
    # The original handle is consumed: the object now exists (here) only
    # under its narrowed type.  Spring objects live in one place at a time.
    obj._consumed = True
    obj._rep = None
    return narrowed


def write_ok_status(reply: MarshalBuffer) -> None:
    reply.put_int8(STATUS_OK)


def write_exception_status(reply: MarshalBuffer, exc: BaseException) -> None:
    reply.put_int8(STATUS_EXCEPTION)
    reply.put_string(type(exc).__name__)
    reply.put_string(str(exc))


def write_revoked_status(reply: MarshalBuffer, message: str) -> None:
    """Server-side reply for calls on revoked state (Section 5.2.3),
    raised client-side as :class:`RevokedObjectError`."""
    reply.put_int8(STATUS_REVOKED)
    reply.put_string(message)
