"""Python code generator for checked IDL specifications.

Produces one module of source text per specification containing, for each
struct, a value class plus marshal/unmarshal helpers, and for each
interface:

* a stub class (subclassing :class:`SpringObject`) whose public methods
  forward through the object's method table — the structure of Section 4;
* one *remote stub* function per operation: Figure 3's client-side path,
  driving the subcontract operations vector;
* one *skeleton* handler per operation plus a dispatch class — the
  server-side stubs that unmarshal arguments and call into the server
  application (Figure 3's server-side path).

Every client stub, general or fused, comes from one template,
:data:`_CLIENT_STUB`; its two variants differ only in how the stub
reaches the subcontract (:func:`generate_fused_source` serves
:mod:`repro.idl.specialize`, :func:`generate_type_query_source` the
reserved type query of Section 6.3).

The general code is deliberately subcontract-agnostic: any stub works
with any subcontract and vice versa (Section 9.1).  The compiler execs
this source with the module's interface/struct bindings pre-injected as
``_B`` and ``_S``.
"""

from __future__ import annotations

from repro.idl.checker import CheckedInterface, CheckedSpec, CheckedStruct
from repro.core.stubs import TYPE_QUERY_OP
from repro.idl.rtypes import (
    IdlType,
    InterfaceBinding,
    InterfaceType,
    OperationSpec,
    ParamMode,
    Primitive,
    PrimitiveType,
    SequenceType,
    StructType,
)

__all__ = ["generate_source", "generate_fused_source", "generate_type_query_source"]

_HEADER = '''\
# Generated by repro.idl.codegen -- do not edit.
from repro.core.errors import RemoteApplicationError, RevokedObjectError
from repro.core.object import SpringObject
from repro.core.stubs import (
    STATUS_EXCEPTION,
    STATUS_OK,
    STATUS_REVOKED,
    TYPE_QUERY_OP,
    write_exception_status,
)
from repro.idl.genruntime import (
    marshal_door,
    marshal_door_copy,
    marshal_object,
    marshal_object_copy,
    unmarshal_any,
)
'''

_PUT_PRIMITIVE = {
    Primitive.BOOL: "put_bool",
    Primitive.INT32: "put_int32",
    Primitive.INT64: "put_int64",
    Primitive.FLOAT64: "put_float64",
    Primitive.STRING: "put_string",
    Primitive.BYTES: "put_bytes",
}

_GET_PRIMITIVE = {
    Primitive.BOOL: "get_bool",
    Primitive.INT32: "get_int32",
    Primitive.INT64: "get_int64",
    Primitive.FLOAT64: "get_float64",
    Primitive.STRING: "get_string",
    Primitive.BYTES: "get_bytes",
}


class _Emitter:
    def __init__(self, indent: int = 0) -> None:
        self._lines: list[str] = []
        self._indent = indent

    def line(self, text: str = "") -> None:
        if text:
            self._lines.append("    " * self._indent + text)
        else:
            self._lines.append("")

    def push(self) -> None:
        self._indent += 1

    def pop(self) -> None:
        self._indent -= 1

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


def _emit_put(
    out: _Emitter,
    idl_type: IdlType,
    expr: str,
    buf: str,
    domain_expr: str,
    mode: ParamMode = ParamMode.IN,
    depth: int = 0,
) -> None:
    """Emit statements marshalling ``expr`` of ``idl_type`` into ``buf``."""
    if isinstance(idl_type, PrimitiveType):
        kind = idl_type.kind
        if kind is Primitive.VOID:
            return
        if kind is Primitive.DOOR:
            helper = "marshal_door_copy" if mode is ParamMode.COPY else "marshal_door"
            out.line(f"{helper}({buf}, {domain_expr}, {expr})")
            return
        if kind is Primitive.OBJECT:
            helper = (
                "marshal_object_copy" if mode is ParamMode.COPY else "marshal_object"
            )
            out.line(f'{helper}({buf}, {expr}, "object")')
            return
        out.line(f"{buf}.{_PUT_PRIMITIVE[kind]}({expr})")
        return
    if isinstance(idl_type, StructType):
        out.line(f"_marshal_{idl_type.name}({buf}, {expr})")
        return
    if isinstance(idl_type, InterfaceType):
        helper = "marshal_object_copy" if mode is ParamMode.COPY else "marshal_object"
        out.line(f'{helper}({buf}, {expr}, "{idl_type.name}")')
        return
    assert isinstance(idl_type, SequenceType)
    item = f"_item{depth}"
    out.line(f"{buf}.put_sequence_header(len({expr}))")
    out.line(f"for {item} in {expr}:")
    out.push()
    _emit_put(out, idl_type.element, item, buf, domain_expr, mode, depth + 1)
    out.pop()


def _get_expr(idl_type: IdlType, buf: str, domain: str, depth: int = 0) -> str:
    """Return an expression unmarshalling a value of ``idl_type``."""
    if isinstance(idl_type, PrimitiveType):
        kind = idl_type.kind
        if kind is Primitive.VOID:
            return "None"
        if kind is Primitive.DOOR:
            return f"{buf}.get_door_id({domain})"
        if kind is Primitive.OBJECT:
            return f"unmarshal_any({buf}, {domain})"
        return f"{buf}.{_GET_PRIMITIVE[kind]}()"
    if isinstance(idl_type, StructType):
        return f"_unmarshal_{idl_type.name}({buf}, {domain})"
    if isinstance(idl_type, InterfaceType):
        return f'_B["{idl_type.name}"].unmarshal_from({buf}, {domain})'
    assert isinstance(idl_type, SequenceType)
    loop_var = f"_seq{depth}"
    element = _get_expr(idl_type.element, buf, domain, depth + 1)
    return f"[{element} for {loop_var} in range({buf}.get_sequence_header())]"


# ----------------------------------------------------------------------
# structs
# ----------------------------------------------------------------------


def _emit_struct(out: _Emitter, struct: CheckedStruct) -> None:
    names = [name for name, _ in struct.fields]
    signature = ", ".join(names)
    out.line(f"class {struct.name}:")
    out.push()
    fieldsig = ", ".join(f"{n}: {t}" for n, t in struct.fields)
    out.line(f'"""IDL struct {struct.name}({fieldsig})."""')
    slots = ", ".join(f'"{n}"' for n in names)
    trailing = "," if len(names) == 1 else ""
    out.line(f"__slots__ = ({slots}{trailing})")
    out.line(f'_idl_struct = "{struct.name}"')
    if names:
        out.line(f"def __init__(self, {signature}):")
        out.push()
        for name in names:
            out.line(f"self.{name} = {name}")
        out.pop()
    else:
        out.line("def __init__(self):")
        out.push()
        out.line("pass")
        out.pop()
    tuple_self = ", ".join(f"self.{n}" for n in names) or ""
    tuple_other = ", ".join(f"other.{n}" for n in names) or ""
    out.line("def __eq__(self, other):")
    out.push()
    if names:
        out.line(
            f"return isinstance(other, {struct.name}) and "
            f"({tuple_self},) == ({tuple_other},)"
        )
    else:
        out.line(f"return isinstance(other, {struct.name})")
    out.pop()
    out.line("def __hash__(self):")
    out.push()
    if names:
        out.line(f'return hash(("{struct.name}", {tuple_self}))')
    else:
        out.line(f'return hash("{struct.name}")')
    out.pop()
    out.line("def __repr__(self):")
    out.push()
    if names:
        parts = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        out.line(f'return f"{struct.name}({parts})"')
    else:
        out.line(f'return "{struct.name}()"')
    out.pop()
    out.pop()
    out.line()

    out.line(f"def _marshal_{struct.name}(_buf, _value):")
    out.push()
    if not struct.fields:
        out.line("pass")
    for name, ftype in struct.fields:
        _emit_put(out, ftype, f"_value.{name}", "_buf", "_domain_unused")
    out.pop()
    out.line()

    out.line(f"def _unmarshal_{struct.name}(_buf, _domain):")
    out.push()
    args = ", ".join(
        f"{name}={_get_expr(ftype, '_buf', '_domain')}" for name, ftype in struct.fields
    )
    out.line(f"return {struct.name}({args})")
    out.pop()
    out.line()


# ----------------------------------------------------------------------
# interfaces
# ----------------------------------------------------------------------


def _op_signature(op: OperationSpec) -> str:
    return ", ".join(p.name for p in op.params)


def _emit_stub_class(out: _Emitter, iface: CheckedInterface) -> None:
    out.line(f"class {iface.name}(SpringObject):")
    out.push()
    ancestry = " : ".join(iface.ancestors)
    out.line(f'"""IDL interface {ancestry}."""')
    out.line(f'_idl_interface = "{iface.name}"')
    if not iface.operations:
        out.line("pass")
    for op in iface.operations.values():
        params = _op_signature(op)
        head = f"def {op.name}(self{', ' + params if params else ''}):"
        out.line(head)
        out.push()
        out.line("if self._consumed:")
        out.push()
        out.line("self._check_live()")
        out.pop()
        out.line('self._domain.kernel.clock.charge("local_call")')
        call_args = f"self{', ' + params if params else ''}"
        out.line(f'return self._method_table["{op.name}"]({call_args})')
        out.pop()
    out.pop()
    out.line()


#: Figure 3's client half, the one template every client stub comes from:
#: check liveness, marshal the op name and arguments into a pooled buffer,
#: invoke, unmarshal the reply status and result.  When tracing is on the
#: call runs inside the client invoke span (a trace root, or a child of
#: the thread's current span inside a handler); untraced, ``_span`` is
#: None and every branch on it falls through.  ``{preamble}`` and
#: ``{invoke}`` are the variant slots, filled from :data:`_GENERAL` or
#: :data:`_FUSED`.
_CLIENT_STUB = """\
def {name}(_obj{params}):
    if _obj._consumed:
        _obj._check_live()
    _domain = _obj._domain
    _kernel = _domain.kernel
    _sc = _obj._subcontract
    _tracer = _kernel.tracer
    _span = _tracer.begin_invoke(_domain, "{op}", _sc.id{span_attrs}) if _tracer.enabled else None
    try:
        _buf = _domain.acquire_buffer()
        try:
{preamble}
            _buf.put_string("{op}")
{puts}
            if _span is not None:
                _span.attrs["request_bytes"] = _buf.size
{invoke}
        finally:
            # The request is spent once invoke returns or fails; recycle
            # discards door arguments still in transit (so unreferenced
            # notifications fire) before pooling the buffer.
            _buf.recycle()
        if _span is not None:
            _span.attrs["reply_bytes"] = _reply.size
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

#: General stubs: through the subcontract operations vector, paying the
#: two client-side indirect calls Section 9.3 charges.
_GENERAL = {
    "prefix": "_stub",
    "span_attrs": "",
    "preamble": """\
            _kernel.clock.charge("indirect_call")  # stubs -> subcontract (preamble)
            _sc.invoke_preamble(_obj, _buf)""",
    "invoke": """\
            _kernel.clock.charge("indirect_call")  # stubs -> subcontract (invoke)
            _reply = _sc.invoke(_obj, _buf)""",
}

#: Fused stubs (Section 9.1): ``SingleDoorClient.invoke`` inlined, so
#: neither indirect call is made.
_FUSED = {
    "prefix": "_spec",
    "span_attrs": ", fused=True",
    "preamble": "",
    "invoke": """\
            if _buf.region is None:
                _kernel.clock.charge("memory_copy_byte", len(_buf.data))
            _reply = _kernel.door_call(_domain, _obj._rep.door, _buf)
            if _reply.region is None:
                _kernel.clock.charge("memory_copy_byte", len(_reply.data))""",
}


def _emit_client_stub(
    out: _Emitter, name: str, op: OperationSpec, variant: dict[str, str], result: str
) -> None:
    puts = _Emitter(indent=3)
    for param in op.params:
        _emit_put(puts, param.type, param.name, "_buf", "_domain", param.mode)
    text = _CLIENT_STUB.format(
        name=name,
        params="".join(f", {p.name}" for p in op.params),
        op=op.name,
        puts=puts.source(),
        result=result,
        **variant,
    )
    for line in text.splitlines():
        if line.strip():  # an empty slot leaves no blank line
            out.line(line)
    out.line()


def _emit_client_stubs(
    out: _Emitter, iface: CheckedInterface | InterfaceBinding, variant: dict[str, str]
) -> None:
    for op in iface.operations.values():
        name = f"{variant['prefix']}_{iface.name}_{op.name}"
        _emit_client_stub(out, name, op, variant, _get_expr(op.result, "_reply", "_domain"))


def _emit_skeleton_handler(
    out: _Emitter, iface: CheckedInterface, op: OperationSpec
) -> None:
    name = f"_skel_{iface.name}_{op.name}"
    out.line(f"def {name}(_domain, _impl, _buf, _reply):")
    out.push()
    out.line("try:")
    out.push()
    for param in op.params:
        out.line(f"{param.name} = {_get_expr(param.type, '_buf', '_domain')}")
    if not op.params:
        out.line("pass")
    out.pop()
    out.line("except Exception as _exc:")
    out.push()
    out.line("write_exception_status(_reply, _exc)")
    out.line("return")
    out.pop()
    out.line("_rollback = (len(_reply.data), len(_reply.doors))")
    out.line("try:")
    out.push()
    args = _op_signature(op)
    out.line(f"_result = _impl.{op.name}({args})")
    out.line("_reply.put_int8(STATUS_OK)")
    is_void = isinstance(op.result, PrimitiveType) and op.result.kind is Primitive.VOID
    if not is_void:
        _emit_put(out, op.result, "_result", "_reply", "_domain")
    out.pop()
    out.line("except Exception as _exc:")
    out.push()
    out.line("_reply.truncate(_rollback)")
    out.line("write_exception_status(_reply, _exc)")
    out.pop()
    out.pop()
    out.line()


def _emit_skeleton_class(out: _Emitter, iface: CheckedInterface) -> None:
    handlers = ", ".join(
        f'"{op.name}": _skel_{iface.name}_{op.name}' for op in iface.operations.values()
    )
    out.line(f"_HANDLERS_{iface.name} = {{{handlers}}}")
    out.line()
    out.line(f"class _skel_{iface.name}:")
    out.push()
    out.line(f'"""Server-side stubs (skeleton) for interface {iface.name}."""')
    out.line(f'interface_name = "{iface.name}"')
    out.line("@staticmethod")
    out.line("def dispatch(_domain, _impl, _buf, _reply, _binding):")
    out.push()
    out.line("try:")
    out.push()
    out.line("_op = _buf.get_string()")
    out.pop()
    out.line("except Exception as _exc:")
    out.push()
    out.line("write_exception_status(_reply, _exc)")
    out.line("return")
    out.pop()
    out.line("if _op == TYPE_QUERY_OP:")
    out.push()
    out.line("_reply.put_int8(STATUS_OK)")
    out.line("_reply.put_sequence_header(len(_binding.ancestors))")
    out.line("for _ancestor in _binding.ancestors:")
    out.push()
    out.line("_reply.put_string(_ancestor)")
    out.pop()
    out.line("return")
    out.pop()
    out.line(f"_handler = _HANDLERS_{iface.name}.get(_op)")
    out.line("if _handler is None:")
    out.push()
    out.line(
        f"write_exception_status(_reply, "
        f"LookupError('interface {iface.name} has no operation ' + repr(_op)))"
    )
    out.line("return")
    out.pop()
    out.line("_handler(_domain, _impl, _buf, _reply)")
    out.pop()
    out.pop()
    out.line()


# ----------------------------------------------------------------------


def generate_source(spec: CheckedSpec) -> str:
    """Generate the Python source for a checked specification."""
    out = _Emitter()
    for line in _HEADER.splitlines():
        out.line(line)
    out.line()
    for struct in spec.structs.values():
        _emit_struct(out, struct)
    for iface in spec.interfaces.values():
        _emit_stub_class(out, iface)
        _emit_client_stubs(out, iface, _GENERAL)
        for op in iface.operations.values():
            _emit_skeleton_handler(out, iface, op)
        _emit_skeleton_class(out, iface)
    return out.source()


def generate_fused_source(binding: InterfaceBinding) -> str:
    """The fused stub ``_spec_<iface>_<op>`` for every operation of
    ``binding``; it runs in its compiled module's namespace."""
    out = _Emitter()
    _emit_client_stubs(out, binding, _FUSED)
    return out.source()


def generate_type_query_source() -> str:
    """A module whose general stub ``remote_type_query`` asks the server
    for an object's most-derived type and its ancestors, as a tuple."""
    out = _Emitter()
    for line in _HEADER.splitlines():
        out.line(line)
    op = OperationSpec(TYPE_QUERY_OP, (), SequenceType(PrimitiveType(Primitive.STRING)))
    result = f"tuple({_get_expr(op.result, '_reply', '_domain')})"
    _emit_client_stub(out, "remote_type_query", op, _GENERAL, result)
    return out.source()
