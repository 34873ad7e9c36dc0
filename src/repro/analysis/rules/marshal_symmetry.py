"""marshal-symmetry: what marshal writes, unmarshal must read.

Within a subcontract, ``marshal_rep`` and ``unmarshal_rep`` (and, when a
class overrides both, ``marshal``/``unmarshal``) -- and within a
representation, the ``write`` and ``read`` hooks the shared client tail
drives -- are two halves of one wire format: every *kind* of item the
writer puts must have a matching getter on the reader, and vice versa.
The wire format is self-describing, so a mismatch does not corrupt
memory — it raises ``WireTypeError`` at the first incompatible peer —
but that is a runtime failure on a path most tests never exercise
(cross-subcontract re-routing, epoch piggybacks).  This rule catches it
statically.

This is **tag-kind pairing, not an order proof**: the rule compares the
set of wire kinds used by each side, so loops, branches and repeated
fields are fine; proving byte-for-byte sequence equality is undecidable
and not attempted.  Door identifiers and transit references share a kind
(either getter accepts either putter's slot; a hook's ``put_door(...)`` /
``get_door()`` callables are that kind too), and
``peek_object_header``/``get_object_header`` both satisfy
``put_object_header``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, Rule, SourceModule

__all__ = ["MarshalSymmetryRule"]

#: method name -> normalized wire kind
_PUT_KINDS = {
    "put_bool": "bool",
    "put_int8": "int8",
    "put_int32": "int32",
    "put_int64": "int64",
    "put_float64": "float64",
    "put_string": "string",
    "put_bytes": "bytes",
    "put_nil": "nil",
    "put_sequence_header": "sequence_header",
    "put_object_header": "object_header",
    "put_door_id": "door",
    "put_door_transit": "door",
    "put_door": "door",  # the callable a rep's write hook is handed
}

_GET_KINDS = {
    "get_bool": "bool",
    "get_int8": "int8",
    "get_int32": "int32",
    "get_int64": "int64",
    "get_float64": "float64",
    "get_string": "string",
    "get_bytes": "bytes",
    "get_nil": "nil",
    "get_sequence_header": "sequence_header",
    "get_object_header": "object_header",
    "peek_object_header": "object_header",
    "get_door_id": "door",
    "get_door_transit": "door",
    "get_door": "door",  # the callable a rep's read hook is handed
}

#: write-side method -> read-side counterpart it is compared against
_PAIRS = (
    ("marshal_rep", "unmarshal_rep"),
    ("marshal", "unmarshal"),
    ("write", "read"),
)


def _kinds(func: ast.FunctionDef, table: dict[str, str]) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        kind = table.get(name)
        if kind is not None:
            found.add(kind)
    return found


class MarshalSymmetryRule(Rule):
    name = "marshal-symmetry"
    description = (
        "within a subcontract or a representation, the put_* kinds of "
        "marshal/marshal_rep/write must pair with the get_* kinds of "
        "unmarshal/unmarshal_rep/read"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            for write_name, read_name in _PAIRS:
                writer = methods.get(write_name)
                reader = methods.get(read_name)
                if writer is None or reader is None:
                    continue
                put = _kinds(writer, _PUT_KINDS)
                got = _kinds(reader, _GET_KINDS)
                for kind in sorted(put - got):
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=reader.lineno,
                        col=reader.col_offset,
                        severity="error",
                        message=(
                            f"{node.name}.{write_name} writes a {kind!r} "
                            f"item that {read_name} never reads"
                        ),
                        hint=f"add the matching get_{kind}()-style read "
                        f"to {read_name}, or stop writing it",
                    )
                for kind in sorted(got - put):
                    yield Finding(
                        rule=self.name,
                        path=module.path,
                        line=writer.lineno,
                        col=writer.col_offset,
                        severity="error",
                        message=(
                            f"{node.name}.{read_name} reads a {kind!r} "
                            f"item that {write_name} never writes"
                        ),
                        hint=f"add the matching put_{kind}()-style write "
                        f"to {write_name}, or stop reading it",
                    )
