"""Stub runtime support.

The client half of the call protocol is one template in
:mod:`repro.idl.codegen`, from which every generated client stub comes;
the server half is the generated skeletons.  What both halves share lives
here: the reply status codes, the reserved type-query operation, the
run-time narrow, the skeletons' status writers, and the stubs' one reader
of a status other than ok (a stub tests for ok inline).  The logical
progression of a call matches Figure 3 of the paper:

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
attributes to subcontract; the generated stubs and the door handler
charge them to the simulated clock so the E1 bench can reproduce that
accounting.

Wire format of a request, after any subcontract control written by
``invoke_preamble``:

    STRING opname, then the operation's marshalled arguments

and of a reply, after any subcontract control written by the server side:

    INT8 status (0 = ok, 1 = application exception, 2 = revoked)
    on ok:        the marshalled results
    on exception: STRING remote type name, STRING message
    on revoked:   STRING message
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import NarrowError, RemoteApplicationError, RevokedObjectError
from repro.core.object import SpringObject
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import MarshalError

if TYPE_CHECKING:
    from repro.idl.rtypes import InterfaceBinding

__all__ = [
    "STATUS_OK",
    "STATUS_EXCEPTION",
    "STATUS_REVOKED",
    "TYPE_QUERY_OP",
    "remote_type_query",
    "narrow",
    "write_ok_status",
    "write_exception_status",
    "write_revoked_status",
    "read_status",
]

STATUS_OK = 0
STATUS_EXCEPTION = 1
STATUS_REVOKED = 2

#: Reserved operation name handled by every skeleton: returns the
#: implementation's most-derived type name and its ancestors, enabling
#: the run-time narrow of Section 6.3.
TYPE_QUERY_OP = "_spring_type_query"


def remote_type_query(obj: SpringObject) -> tuple[str, ...]:
    """Ask the server for the object's most-derived type and ancestors,
    through the client stub generated for :data:`TYPE_QUERY_OP`."""
    from repro.idl.compiler import remote_type_query as stub  # idl builds on core

    return tuple(stub(obj))


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
    # The subcontract plugs its representation into the target type, so
    # it picks the method table: an inline simplex object stays inline.
    narrowed = obj._subcontract.make_object(obj._rep, target)
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


def read_status(reply: MarshalBuffer, pos: int) -> int:
    """Read the reply status at ``pos``; returns the cursor after an ok
    status, and raises for any other: :class:`RemoteApplicationError`,
    :class:`RevokedObjectError`, or :class:`MarshalError` naming a status
    no skeleton writes."""
    reply.pos = pos
    status = reply.get_int8()
    if status == STATUS_OK:
        return reply.pos
    if status == STATUS_EXCEPTION:
        raise RemoteApplicationError(reply.get_string(), reply.get_string())
    if status == STATUS_REVOKED:
        raise RevokedObjectError(reply.get_string())
    raise MarshalError(f"unknown reply status {status}")
