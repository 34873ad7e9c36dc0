"""Python code generator for checked IDL specifications.

Produces one module of source text per specification containing, for each
struct, a value class plus marshal/unmarshal helpers, and for each
interface:

* a stub class (subclassing :class:`SpringObject`) whose public methods
  forward through the object's method table — the structure of Section 4;
* per operation it declares, a *remote stub* ``_stub_<iface>_<op>``
  (Figure 3's client-side path, driving the subcontract operations
  vector) and a *skeleton* handler ``_skel_<iface>_<op>`` (the server
  side: unmarshal the arguments, call the server application); a stub
  depends only on its declaration (Sections 4 and 9.1), so derived
  interfaces use their declarer's;
* a skeleton class, its dispatch the module's one :data:`_DISPATCH`.

Every client stub, general or fused, comes from one template,
:data:`_CLIENT_STUB`; its two variants differ only in how the stub
reaches the subcontract (:func:`generate_fused_source` serves
:mod:`repro.idl.specialize`, :func:`generate_type_query_source` the
reserved type query of Section 6.3).  Stubs and skeletons pack and read
primitive items inline, from :data:`repro.marshal.codec.FRAGMENTS`.

The general code is deliberately subcontract-agnostic: any stub works
with any subcontract and vice versa (Section 9.1).  The compiler execs
this source with the module's interface/struct bindings pre-injected as
``_B`` and ``_S``.
"""

from __future__ import annotations

from textwrap import indent

from repro.idl.checker import CheckedInterface, CheckedSpec, CheckedStruct
from repro.core.stubs import STATUS_OK, TYPE_QUERY_OP
from repro.marshal.codec import FRAGMENTS, TaggedStream
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
    discard_args,
    marshal_door,
    marshal_door_copy,
    marshal_object,
    marshal_object_copy,
    unmarshal_any,
)
from repro.marshal.codec import FRAGMENT_GLOBALS
globals().update(FRAGMENT_GLOBALS)
'''

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
        out.line(f"{buf}.put_{kind.value}({expr})")
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
        return f"{buf}.get_{kind.value}()"
    if isinstance(idl_type, StructType):
        return f"_unmarshal_{idl_type.name}({buf}, {domain})"
    if isinstance(idl_type, InterfaceType):
        return f'_B["{idl_type.name}"].unmarshal_from({buf}, {domain})'
    assert isinstance(idl_type, SequenceType)
    loop_var = f"_seq{depth}"
    element = _get_expr(idl_type.element, buf, domain, depth + 1)
    return f"[{element} for {loop_var} in range({buf}.get_sequence_header())]"


def _wire_kind(idl_type: IdlType | str) -> str | None:
    """The wire kind (``put_``/``get_`` suffix) of an inline item, or None."""
    kind = idl_type.kind.value if isinstance(idl_type, PrimitiveType) else idl_type
    return kind if kind in FRAGMENTS else None


def _splice(out: _Emitter, text: str) -> None:
    for line in text.splitlines():
        out.line(line)


#: Primitive items appended straight to ``{buf}``'s byte store, charged
#: with one ``charge_bytes``.  Should one fail, the codec's ``put_*`` redo
#: the run: they raise the error and charge the items before it.
_PUT_RUN = """\
_d = {buf}.data
_m = len(_d)
try:
{fast}
except Exception:
    del _d[_m:]
    _d = None
else:
    if {buf}._clock is not None:
        {buf}._clock.charge_bytes({sizes})
if _d is None:
{slow}"""


def _emit_put_run(out: _Emitter, buf: str, run: list[tuple[str, str, object]]) -> None:
    """:data:`_PUT_RUN` for ``(kind, expr, constant)``; constants are packed now."""
    if not run:
        return
    fast, sizes = [], []
    for index, (kind, expr, constant) in enumerate(run):
        if constant is None:
            put, size, _ = FRAGMENTS[kind]
            fast.append(put.format(v=expr, s=f"_s{index}", buf=buf))
            sizes.append(f"_s{index}" if size is None else str(size))
            continue
        packed = TaggedStream()
        getattr(packed, "put_" + kind)(constant)
        fast.append(f"_d += {bytes(packed.data)!r}  # {expr}")
        sizes.append(str(len(packed.data)))
    slow = "\n".join(f"{buf}.put_{kind}({expr})" for kind, expr, _ in run)
    fast, slow = indent("\n".join(fast), "    "), indent(slow, "    ")
    _splice(out, _PUT_RUN.format(buf=buf, fast=fast, sizes=", ".join(sizes), slow=slow))


def _emit_marshal(out: _Emitter, buf: str, lead: tuple, params: list[tuple]) -> None:
    """Marshal constant ``lead``, then ``params``; primitive runs go inline."""
    run = [lead]
    for idl_type, expr, mode in params:
        kind = _wire_kind(idl_type)
        if kind is not None:
            run.append((kind, expr, None))
            continue
        _emit_put_run(out, buf, run)
        run = []
        _emit_put(out, idl_type, expr, buf, "_domain", mode)
    _emit_put_run(out, buf, run)


def _emit_get(out: _Emitter, buf: str, name: str, idl_type: IdlType | str) -> None:
    """Unmarshal ``name`` from ``buf``; a primitive item inline, cursor in ``_p``."""
    kind = _wire_kind(idl_type)
    if kind is None:
        out.line(f"{name} = {_get_expr(idl_type, buf, '_domain')}")
        return
    _splice(out, f"_d = {buf}.data\n_p = {buf}.pos\n_e = len(_d)")
    _splice(out, FRAGMENTS[kind][2].format(v=name, buf=buf))
    out.line(f"{buf}.pos = _p")


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
    for op in iface.own_operations:
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
    # Inherited methods are the declarer's functions, bound after the body
    # (no method name shadows a base); IDL bases need not have a Python MRO.
    for op in iface.operations.values():
        if op.introduced_by != iface.name:
            out.line(f"{iface.name}.{op.name} = {op.introduced_by}.{op.name}")
    out.line()


#: Figure 3's client half, the one template every client stub comes from:
#: check liveness, marshal the op name and arguments into a pooled buffer,
#: invoke, unmarshal the reply status and result.  Primitive items are
#: packed and read inline (``{puts}``, ``{status}``, ``{result}``).  When
#: tracing is on the call runs inside the client invoke span (a trace
#: root, or a child of the thread's current span inside a handler);
#: untraced, ``_span`` is None and every branch on it falls through.
#: ``{preamble}`` and ``{invoke}`` are the variant slots, filled from
#: :data:`_GENERAL` or :data:`_FUSED`.
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
{puts}
            if _span is not None:
                _span.attrs["request_bytes"] = _buf.size
{invoke}
        finally:
            # The request is spent once invoke returns or fails; one with
            # door arguments is recycled, which discards those still in
            # transit (so unreferenced notifications fire) before pooling.
            if _buf.doors:
                _buf.recycle()
            else:
                _buf.release()
        try:
            if _span is not None:
                _span.attrs["reply_bytes"] = _reply.size
{status}
            if _status == STATUS_EXCEPTION:
                raise RemoteApplicationError(_reply.get_string(), _reply.get_string())
            if _status == STATUS_REVOKED:
                raise RevokedObjectError(_reply.get_string())
{result}
        except BaseException:
            _reply.recycle()
            raise
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
    out: _Emitter, name: str, op: OperationSpec, variant: dict[str, str], tail: str = ""
) -> None:
    puts, status, result = _Emitter(indent=3), _Emitter(indent=3), _Emitter(indent=3)
    params = [(p.type, p.name, p.mode) for p in op.params]
    _emit_marshal(puts, "_buf", ("string", f'"{op.name}"', op.name), params)
    _emit_get(status, "_reply", "_status", "int8")
    _emit_get(result, "_reply", "_result", op.result)
    result.line(tail)
    text = _CLIENT_STUB.format(
        name=name,
        params="".join(f", {p.name}" for p in op.params),
        op=op.name,
        puts=puts.source(),
        status=status.source(),
        result=result.source(),
        **variant,
    )
    for line in text.splitlines():
        if line.strip():  # an empty slot leaves no blank line
            out.line(line)
    out.line()


def _emit_skeleton_handler(out: _Emitter, name: str, op: OperationSpec) -> None:
    out.line(f"def {name}(_domain, _impl, _buf, _reply):")
    out.push()
    # Objects and doors unmarshalled before a failing argument are given up.
    held = [p.name for p in op.params[:-1] if _wire_kind(p.type) is None]
    if held:
        out.line(" = ".join(held) + " = None")
    out.line("try:")
    out.push()
    for param in op.params:
        _emit_get(out, "_buf", param.name, param.type)
    if not op.params:
        out.line("pass")
    out.pop()
    out.line("except Exception as _exc:")
    out.push()
    if held:
        out.line(f"discard_args(_domain, {', '.join(held)})")
    out.line("write_exception_status(_reply, _exc)")
    out.line("return")
    out.pop()
    out.line("_rollback = (len(_reply.data), len(_reply.doors))")
    out.line("try:")
    out.push()
    args = _op_signature(op)
    out.line(f"_result = _impl.{op.name}({args})")
    result = [(op.result, "_result", ParamMode.IN)]
    _emit_marshal(out, "_reply", ("int8", "STATUS_OK", STATUS_OK), result)
    out.pop()
    out.line("except Exception as _exc:")
    out.push()
    out.line("_reply.truncate(_rollback)")
    out.line("write_exception_status(_reply, _exc)")
    out.pop()
    out.pop()
    out.line()


#: Figure 3's server half up to the handler, emitted once per module:
#: read the op name, answer the reserved type query (Section 6.3), and
#: pass the call to the op's handler.  Each interface's skeleton closes
#: it over its own name, which an unknown op's error names, and handlers.
_DISPATCH = """\
def _dispatch_for(_name, _handlers):
    def dispatch(_domain, _impl, _buf, _reply, _binding):
        try:
{op}
        except Exception as _exc:
            write_exception_status(_reply, _exc)
            return
        if _op == TYPE_QUERY_OP:
            _reply.put_int8(STATUS_OK)
            _reply.put_sequence_header(len(_binding.ancestors))
            for _ancestor in _binding.ancestors:
                _reply.put_string(_ancestor)
            return
        _handler = _handlers.get(_op)
        if _handler is None:
            write_exception_status(_reply, LookupError("interface " + _name + " has no operation " + repr(_op)))
            return
        _handler(_domain, _impl, _buf, _reply)
    return dispatch
"""


def _emit_skeleton_class(out: _Emitter, iface: CheckedInterface) -> None:
    handlers = ", ".join(
        f'"{op.name}": _skel_{op.introduced_by}_{op.name}'
        for op in iface.operations.values()
    )
    out.line(f"class _skel_{iface.name}:")
    out.push()
    out.line(f'"""Server-side stubs (skeleton) for interface {iface.name}."""')
    out.line(f'interface_name = "{iface.name}"')
    out.line(f'dispatch = staticmethod(_dispatch_for("{iface.name}", {{{handlers}}}))')
    out.pop()
    out.line()


# ----------------------------------------------------------------------


def generate_source(spec: CheckedSpec) -> str:
    """Generate the Python source for a checked specification."""
    out = _Emitter()
    _splice(out, _HEADER)
    out.line()
    for struct in spec.structs.values():
        _emit_struct(out, struct)
    if spec.interfaces:
        op = _Emitter(indent=3)
        _emit_get(op, "_buf", "_op", "string")
        _splice(out, _DISPATCH.format(op=op.source().rstrip("\n")))
        out.line()
    for iface in spec.interfaces.values():
        _emit_stub_class(out, iface)
        for op in iface.own_operations:
            _emit_client_stub(out, f"_stub_{iface.name}_{op.name}", op, _GENERAL)
            _emit_skeleton_handler(out, f"_skel_{iface.name}_{op.name}", op)
        _emit_skeleton_class(out, iface)
    return out.source()


def generate_fused_source(binding: InterfaceBinding) -> str:
    """The fused stub ``_spec_<iface>_<op>`` for every operation of
    ``binding``; it runs in its compiled module's namespace."""
    out = _Emitter()
    for op in binding.operations.values():
        _emit_client_stub(out, f"_spec_{binding.name}_{op.name}", op, _FUSED)
    return out.source()


def generate_type_query_source() -> str:
    """A module whose general stub ``remote_type_query`` asks the server
    for an object's most-derived type and its ancestors, as a tuple."""
    out = _Emitter()
    _splice(out, _HEADER)
    op = OperationSpec(TYPE_QUERY_OP, (), SequenceType(PrimitiveType(Primitive.STRING)))
    _emit_client_stub(out, "remote_type_query", op, _GENERAL, "_result = tuple(_result)")
    return out.source()
