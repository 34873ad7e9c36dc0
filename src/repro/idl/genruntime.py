"""Runtime helpers called by IDL-generated stub and skeleton code.

These functions are the only names the code generator assumes exist
besides the standard library; they keep the generated source small and
put the subtle object-passing semantics (move vs copy, Section 3.2 and
5.1.5) in one reviewed place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.object import SpringObject
from repro.idl.rtypes import InterfaceBinding
from repro.kernel.doors import DoorIdentifier

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.marshal.buffer import MarshalBuffer

__all__ = [
    "ANY_BINDING",
    "check_object_arg",
    "discard_args",
    "marshal_object",
    "marshal_object_copy",
    "unmarshal_any",
    "unmarshal_sequence",
    "marshal_door",
    "marshal_door_copy",
    "marshal_primitives",
    "unmarshal_primitives",
]

#: The generic ``object`` type: any Spring object can be unmarshalled at
#: this binding and later narrowed to a concrete type (Section 6.3).
ANY_BINDING = InterfaceBinding(
    name="object",
    ancestors=("object",),
    operations={},
    stub_class=SpringObject,
)
ANY_BINDING._remote_table = {}


def check_object_arg(value: object, expected_type: str) -> SpringObject:
    """Validate an object-typed argument before marshalling it.

    Accepts any object when the expected type is the generic ``object``;
    otherwise the value's static binding must list the expected interface
    among its ancestors.
    """
    if not isinstance(value, SpringObject):
        raise TypeError(
            f"expected a Spring object of type {expected_type!r}, "
            f"got {type(value).__name__}"
        )
    if expected_type != "object" and expected_type not in value._binding.ancestors:
        raise TypeError(
            f"object of type {value._binding.name!r} is not a {expected_type!r}"
        )
    return value


def marshal_object(
    buffer: "MarshalBuffer", value: object, expected_type: str
) -> None:
    """Marshal an object argument in ``in`` mode: the object *moves*.

    Spring model (Section 3.2): "if we transmit an object to someone else
    then we cease to have the object ourselves."
    """
    obj = check_object_arg(value, expected_type)
    obj._subcontract.marshal(obj, buffer)


def marshal_object_copy(
    buffer: "MarshalBuffer", value: object, expected_type: str
) -> None:
    """Marshal an object argument in ``copy`` mode via ``marshal_copy``
    (Section 5.1.5), leaving the caller's object intact."""
    obj = check_object_arg(value, expected_type)
    obj._subcontract.marshal_copy(obj, buffer)


def unmarshal_any(buffer: "MarshalBuffer", domain: "Domain") -> SpringObject:
    """Unmarshal a value of the generic ``object`` type.

    With no expected type to choose an initial subcontract from, peek the
    actual subcontract ID and dispatch straight to its code.
    """
    from repro.core.registry import ensure_registry

    actual_id = buffer.peek_object_header()
    registry = ensure_registry(domain)
    return registry.lookup(actual_id).unmarshal(buffer, ANY_BINDING)


def marshal_door(
    buffer: "MarshalBuffer", domain: "Domain", value: "DoorIdentifier"
) -> None:
    """Marshal a raw door identifier in ``in`` mode (the identifier moves)."""
    buffer.put_door_id(domain, value)


def marshal_door_copy(
    buffer: "MarshalBuffer", domain: "Domain", value: "DoorIdentifier"
) -> None:
    """Marshal a copy of a raw door identifier, keeping the original."""
    duplicate = domain.kernel.copy_door_id(domain, value)
    buffer.put_door_id(domain, duplicate)


def unmarshal_sequence(buffer: "MarshalBuffer", domain: "Domain", get: Callable) -> list:
    """Unmarshal a sequence of objects or doors, one ``get(buffer, domain)``
    each; should element k fail, elements 0..k-1 are given up first."""
    values: list = []
    try:
        for _ in range(buffer.get_sequence_header()):
            values.append(get(buffer, domain))
    except BaseException:
        discard_args(domain, values)
        raise
    return values


def marshal_primitives(buffer: "MarshalBuffer", kind: str, values: Sequence) -> None:
    """Marshal a sequence of primitive ``kind`` items through ``put_<kind>``."""
    buffer.put_sequence_header(len(values))
    for value in values:
        getattr(buffer, "put_" + kind)(value)


def unmarshal_primitives(buffer: "MarshalBuffer", kind: str) -> list:
    """Unmarshal a sequence of primitive ``kind`` items through ``get_<kind>``."""
    return [getattr(buffer, "get_" + kind)() for _ in range(buffer.get_sequence_header())]


def discard_args(domain: "Domain", *values: object) -> None:
    """Give up the objects and doors a skeleton unmarshalled before a
    failure, also those held in (nested) sequences."""
    for value in values:
        if isinstance(value, list):
            discard_args(domain, *value)
        elif isinstance(value, SpringObject) and not value._consumed:
            value.spring_consume()
        elif isinstance(value, DoorIdentifier):
            domain.kernel.delete_door_id(domain, value)
