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
reserved type query of Section 6.3).  Stubs and skeletons carry only the
fast path: they pack and read primitive items inline, from
:data:`repro.marshal.codec.FRAGMENTS`, and test the reply status for ok.
Every cold path (a run that does not pack, an item that does not read,
any other status) is one call to a helper they all share.

The general code is deliberately subcontract-agnostic: any stub works
with any subcontract and vice versa (Section 9.1).  The compiler execs
this source with the module's interface/struct bindings pre-injected as
``_B`` and ``_S``.
"""

from __future__ import annotations

from itertools import groupby
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
from repro.core.object import SpringObject
from repro.core.stubs import STATUS_OK, TYPE_QUERY_OP, read_status, write_exception_status, write_ok_status
from repro.idl.genruntime import (
    discard_args, marshal_door, marshal_door_copy, marshal_object, marshal_object_copy,
    marshal_primitives, unmarshal_any, unmarshal_primitives, unmarshal_sequence,
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
    kind = _wire_kind(idl_type.element)
    if kind is not None:
        out.line(f'marshal_primitives({buf}, "{kind}", {expr})')
        return
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
    kind = _wire_kind(idl_type.element)
    if kind is not None:
        return f'unmarshal_primitives({buf}, "{kind}")'
    if _holds_refs(idl_type.element):  # given up should a later element fail
        b, d = f"_b{depth}", f"_d{depth}"
        element = _get_expr(idl_type.element, b, d, depth + 1)
        return f"unmarshal_sequence({buf}, {domain}, lambda {b}, {d}: {element})"
    loop_var = f"_seq{depth}"
    element = _get_expr(idl_type.element, buf, domain, depth + 1)
    return f"[{element} for {loop_var} in range({buf}.get_sequence_header())]"


def _holds_refs(idl_type: IdlType) -> bool:
    """Whether ``idl_type`` is an object or door, or a sequence of them."""
    if isinstance(idl_type, SequenceType):
        return _holds_refs(idl_type.element)
    kind = getattr(idl_type, "kind", None)
    return isinstance(idl_type, InterfaceType) or kind in (Primitive.DOOR, Primitive.OBJECT)


def _wire_kind(idl_type: IdlType | str) -> str | None:
    """The wire kind (``put_``/``get_`` suffix) of an inline item, or None."""
    kind = idl_type.kind.value if isinstance(idl_type, PrimitiveType) else idl_type
    return kind if kind in FRAGMENTS else None


def _packed(kind: str, value: object) -> bytes:
    stream = TaggedStream()
    getattr(stream, "put_" + kind)(value)
    return bytes(stream.data)


def _splice(out: _Emitter, text: str) -> None:
    for line in text.splitlines():
        out.line(line)


#: Primitive items appended straight to ``{buf}``'s byte store, charged
#: with one ``charge_bytes``.  Should one fail, the codec's shared
#: ``_wire_replay`` drops the run's bytes and redoes it through ``put_*``,
#: which raises the error and charges the items before it.
_PUT_RUN = """\
_d = {buf}.data
_m = len(_d)
try:
{fast}
except Exception:
    _wire_replay({buf}, _m, {kinds!r}, {values})
else:
    if {buf}._clock is not None:
        {buf}._clock.charge_bytes({sizes})"""


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
        packed = _packed(kind, constant)
        fast.append(f"_d += {packed!r}  # {expr}")
        sizes.append(str(len(packed)))
    kinds, values = tuple(kind for kind, _, _ in run), ", ".join(expr for _, expr, _ in run)
    fast, sizes = indent("\n".join(fast), "    "), ", ".join(sizes)
    _splice(out, _PUT_RUN.format(buf=buf, fast=fast, kinds=kinds, values=values, sizes=sizes))


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


#: A reply status read inline when it is ``STATUS_OK``; any other is
#: :func:`repro.core.stubs.read_status`'s to raise.
_STATUS = f"""\
if _d[_p:_p + 2] == {_packed("int8", STATUS_OK)!r}:
    _p += 2
else:
    _p = read_status({{buf}}, _p)"""


def _emit_reads(out: _Emitter, buf: str, reads: list[tuple[str, IdlType | str]]) -> None:
    """Unmarshal each ``(name, type)`` of ``reads`` from ``buf``.  Each run
    of primitive items (type ``"status"``: the reply status) is read
    inline on one cursor ``_p``, loaded and stored once."""
    for inline, run in groupby(reads, lambda read: read[1] == "status" or _wire_kind(read[1]) is not None):
        run = list(run)
        if not inline:
            for name, idl_type in run:
                out.line(f"{name} = {_get_expr(idl_type, buf, '_domain')}")
            continue
        _splice(out, f"_d = {buf}.data\n_p = {buf}.pos")
        if any(idl_type != "status" for _, idl_type in run):
            out.line("_e = len(_d)")
        for name, idl_type in run:
            text = _STATUS if idl_type == "status" else FRAGMENTS[_wire_kind(idl_type)][2]
            _splice(out, text.format(v=name, buf=buf))
        out.line(f"{buf}.pos = _p")


# ----------------------------------------------------------------------
# structs
# ----------------------------------------------------------------------


#: An IDL struct's value class (a tuple of its fields for equality and
#: hashing, ``()`` for a struct with none) and its marshal helpers.
_STRUCT = '''\
class {name}:
    """IDL struct {name}({fieldsig})."""
    __slots__ = ({slots})
    _idl_struct = "{name}"
    def __init__(self{params}):
{inits}
    def __eq__(self, other):
        return isinstance(other, {name}) and ({mine}) == ({theirs})
    def __hash__(self):
        return hash(("{name}", {mine}))
    def __repr__(self):
        return f"{name}({fields})"

def _marshal_{name}(_buf, _value):
{puts}

def _unmarshal_{name}(_buf, _domain):
    return {name}({gets})
'''


def _emit_struct(out: _Emitter, struct: CheckedStruct) -> None:
    names = [name for name, _ in struct.fields]
    puts = _Emitter(indent=1)
    for name, ftype in struct.fields:
        _emit_put(puts, ftype, f"_value.{name}", "_buf", "_domain_unused")
    _splice(out, _STRUCT.format(
        name=struct.name,
        fieldsig=", ".join(f"{n}: {t}" for n, t in struct.fields),
        slots="".join(f'"{n}", ' for n in names).rstrip(),
        params="".join(f", {n}" for n in names),
        inits="\n".join(f"        self.{n} = {n}" for n in names) or "        pass",
        mine="".join(f"self.{n}, " for n in names).rstrip(),
        theirs="".join(f"other.{n}, " for n in names).rstrip(),
        fields=", ".join(f"{n}={{self.{n}!r}}" for n in names),
        puts=puts.source().rstrip("\n") or "    pass",
        gets=", ".join(f"{n}={_get_expr(t, '_buf', '_domain')}" for n, t in struct.fields),
    ))
    out.line()


# ----------------------------------------------------------------------
# interfaces
# ----------------------------------------------------------------------


#: A stub class method: forward through the object's method table
#: (Section 4).
_METHOD = """\
    def {op}(self{params}):
        if self._consumed:
            self._check_live()
        self._domain.kernel.clock.charge("local_call")
        return self._method_table["{op}"](self{params})"""


def _emit_stub_class(out: _Emitter, iface: CheckedInterface) -> None:
    out.line(f"class {iface.name}(SpringObject):")
    out.line(f'    """IDL interface {" : ".join(iface.ancestors)}."""')
    out.line(f'    _idl_interface = "{iface.name}"')
    for op in iface.own_operations:
        _splice(out, _METHOD.format(op=op.name, params="".join(f", {p.name}" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after the body
    # (no method name shadows a base); IDL bases need not have a Python MRO.
    for op in iface.operations.values():
        if op.introduced_by != iface.name:
            out.line(f"{iface.name}.{op.name} = {op.introduced_by}.{op.name}")
    out.line()


#: Figure 3's client half, the one template every client stub comes from:
#: check liveness, marshal the op name and arguments into a pooled buffer,
#: invoke, unmarshal the reply status and result.  Primitive items are
#: packed and read inline (``{puts}``, ``{reads}``).  The request is spent
#: once invoke returns or fails; one with door arguments is recycled,
#: which discards those still in transit (so unreferenced notifications
#: fire) before pooling.  When tracing is on the call runs inside the
#: client invoke span (a trace root, or a child of the thread's current
#: span inside a handler); untraced, ``_span`` is None and every branch on
#: it falls through.  ``{preamble}`` and ``{invoke}`` are the variant
#: slots, filled from :data:`_GENERAL` or :data:`_FUSED`.
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
            if _buf.doors:
                _buf.recycle()
            else:
                _buf.release()
        try:
            if _span is not None:
                _span.attrs["reply_bytes"] = _reply.size
{reads}
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
#: two client-side indirect calls (stubs -> subcontract, for the preamble
#: and for invoke) Section 9.3 charges.
_GENERAL = {
    "span_attrs": "",
    "preamble": """\
            _kernel.clock.charge("indirect_call")
            _sc.invoke_preamble(_obj, _buf)""",
    "invoke": """\
            _kernel.clock.charge("indirect_call")
            _reply = _sc.invoke(_obj, _buf)""",
}

#: Fused stubs (Section 9.1): ``SingleDoorClient.invoke`` inlined, so
#: neither indirect call is made.
_FUSED = {
    "span_attrs": ", fused=True",
    "preamble": "",
    "invoke": """\
            _reply = _kernel.door_call(_domain, _obj._rep.door, _buf)""",
}


def _emit_client_stub(out: _Emitter, name: str, op: OperationSpec, variant: dict[str, str]) -> None:
    puts, reads = _Emitter(indent=3), _Emitter(indent=3)
    params = [(p.type, p.name, p.mode) for p in op.params]
    _emit_marshal(puts, "_buf", ("string", f'"{op.name}"', op.name), params)
    _emit_reads(reads, "_reply", [("_status", "status"), ("_result", op.result)])
    text = _CLIENT_STUB.format(
        name=name,
        params="".join(f", {p.name}" for p in op.params),
        op=op.name,
        puts=puts.source(),
        reads=reads.source(),
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
    if op.params:
        out.line("try:")
        out.push()
        _emit_reads(out, "_buf", [(p.name, p.type) for p in op.params])
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
    out.line(f"_result = _impl.{op.name}({', '.join(p.name for p in op.params)})")
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
#: read the op name (unless the caller already did and passes it as
#: ``_op``), answer the reserved type query (Section 6.3), and pass the
#: call to the op's handler.  Each interface's skeleton closes
#: it over its own name, which an unknown op's error names, and handlers.
_DISPATCH = """\
def _dispatch_for(_name, _handlers):
    def dispatch(_domain, _impl, _buf, _reply, _binding, _op=None):
        if _op is None:
            try:
{op}
            except Exception as _exc:
                write_exception_status(_reply, _exc)
                return
        if _op == TYPE_QUERY_OP:
            write_ok_status(_reply)
            marshal_primitives(_reply, "string", _binding.ancestors)
            return
        _handler = _handlers.get(_op)
        if _handler is None:
            write_exception_status(_reply, LookupError("interface " + _name + " has no operation " + repr(_op)))
            return
        _handler(_domain, _impl, _buf, _reply)
    return dispatch
"""


def _emit_skeleton_class(out: _Emitter, iface: CheckedInterface) -> None:
    ops = iface.operations.values()
    handlers = ", ".join(f'"{op.name}": _skel_{op.introduced_by}_{op.name}' for op in ops)
    _splice(out, f'''class _skel_{iface.name}:
    """Server-side stubs (skeleton) for interface {iface.name}."""
    interface_name = "{iface.name}"
    dispatch = staticmethod(_dispatch_for("{iface.name}", {{{handlers}}}))
''')
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
        op = _Emitter(indent=4)
        _emit_reads(op, "_buf", [("_op", "string")])
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
    """The fused stub ``_spec_<iface>_<op>`` for every operation
    ``binding`` declares (derived interfaces use their declarer's, as
    general stubs do); it runs in its compiled module's namespace."""
    out = _Emitter()
    for op in binding.operations.values():
        if op.introduced_by == binding.name:
            _emit_client_stub(out, f"_spec_{binding.name}_{op.name}", op, _FUSED)
    return out.source()


def generate_type_query_source() -> str:
    """A module whose general stub ``remote_type_query`` asks the server
    for an object's most-derived type and its ancestors."""
    out = _Emitter()
    _splice(out, _HEADER)
    op = OperationSpec(TYPE_QUERY_OP, (), SequenceType(PrimitiveType(Primitive.STRING)))
    _emit_client_stub(out, "remote_type_query", op, _GENERAL)
    return out.source()
