"""The IDL compiler front door.

``compile_idl`` turns IDL source text into an :class:`IdlModule` holding
generated stub classes, skeletons, struct value classes, and the runtime
bindings the subcontract layer consumes.  This plays the role of Spring's
stub generator (Section 3.1): "From the IDL interfaces it is possible to
generate language-specific stubs."
"""

from __future__ import annotations

import itertools
import linecache
from typing import Any

from repro.core.identity import validate_subcontract_id
from repro.idl.checker import CheckedSpec, check
from repro.idl.codegen import generate_source, generate_type_query_source
from repro.idl.errors import IdlCheckError
from repro.idl.parser import parse
from repro.idl.rtypes import InterfaceBinding, StructBinding

__all__ = ["IdlModule", "compile_idl", "load_generated", "remote_type_query"]

_module_counter = itertools.count(1)


class IdlModule:
    """A compiled IDL specification.

    Struct value classes and interface stub classes are available as
    attributes under their IDL names; bindings via :meth:`binding` and
    :meth:`struct`.
    """

    def __init__(
        self,
        name: str,
        namespace: dict[str, Any],
        bindings: dict[str, InterfaceBinding],
        structs: dict[str, StructBinding],
        source: str,
    ) -> None:
        self.name = name
        self._namespace = namespace
        self.bindings = bindings
        self.structs = structs
        self.source = source

    def binding(self, interface_name: str) -> InterfaceBinding:
        """The runtime binding for an interface type."""
        try:
            return self.bindings[interface_name]
        except KeyError:
            raise KeyError(
                f"module {self.name!r} defines no interface "
                f"{interface_name!r} (has {sorted(self.bindings)})"
            ) from None

    def struct(self, struct_name: str) -> StructBinding:
        """The runtime binding for a struct type."""
        try:
            return self.structs[struct_name]
        except KeyError:
            raise KeyError(
                f"module {self.name!r} defines no struct "
                f"{struct_name!r} (has {sorted(self.structs)})"
            ) from None

    def __getattr__(self, name: str) -> Any:
        try:
            return self._namespace[name]
        except KeyError:
            raise AttributeError(
                f"IDL module {self.name!r} has no type {name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IdlModule {self.name!r} interfaces={sorted(self.bindings)} "
            f"structs={sorted(self.structs)}>"
        )


def compile_idl(
    source_text: str,
    module_name: str | None = None,
    default_subcontract: str = "singleton",
    subcontract_overrides: dict[str, str] | None = None,
) -> IdlModule:
    """Compile IDL source into stubs, skeletons, and bindings.

    Args:
        source_text: the IDL specification.
        module_name: name used in generated tracebacks.
        default_subcontract: default subcontract ID for interfaces that do
            not declare one (Section 6.1: each type specifies a default
            subcontract for use when talking to that type).
        subcontract_overrides: per-interface default-subcontract overrides,
            applied after any in-source ``subcontract "..."`` declarations.
    """
    if module_name is None:
        module_name = f"idl_module_{next(_module_counter)}"
    spec = check(parse(source_text), default_subcontract)
    _apply_overrides(spec, subcontract_overrides or {})

    bindings: dict[str, InterfaceBinding] = {}
    for iface in spec.interfaces.values():
        validate_subcontract_id(iface.default_subcontract_id)
        bindings[iface.name] = InterfaceBinding(
            name=iface.name,
            ancestors=iface.ancestors,
            operations=dict(iface.operations),
            default_subcontract_id=iface.default_subcontract_id,
        )
    structs: dict[str, StructBinding] = {
        s.name: StructBinding(name=s.name, fields=s.fields)
        for s in spec.structs.values()
    }

    source = generate_source(spec)
    namespace = load_generated(
        source, f"<idl:{module_name}>", {"_B": bindings, "_S": structs}
    )

    for name, binding in bindings.items():
        binding.stub_class = namespace[name]
        binding.skeleton = namespace[f"_skel_{name}"]
        binding._remote_table = {
            op.name: namespace[f"_stub_{op.introduced_by}_{op.name}"]
            for op in binding.operations.values()
        }
    for name, struct_binding in structs.items():
        struct_binding.value_class = namespace[name]
        struct_binding.marshal = namespace[f"_marshal_{name}"]
        struct_binding.unmarshal = namespace[f"_unmarshal_{name}"]

    return IdlModule(module_name, namespace, bindings, structs, source)


def load_generated(
    source: str, filename: str, namespace: dict[str, Any]
) -> dict[str, Any]:
    """Exec generated stub source into ``namespace`` and return it.

    ``filename`` is registered with :mod:`linecache`, so tracebacks
    through generated code show its lines.
    """
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - our own generated stubs
    return namespace


def _apply_overrides(spec: CheckedSpec, overrides: dict[str, str]) -> None:
    for interface_name, subcontract_id in overrides.items():
        iface = spec.interfaces.get(interface_name)
        if iface is None:
            raise IdlCheckError(
                f"subcontract override names unknown interface {interface_name!r}"
            )
        iface.default_subcontract_id = subcontract_id


#: The general stub for the reserved type query (Section 6.3), which
#: :func:`repro.core.stubs.remote_type_query` calls.
remote_type_query = load_generated(
    generate_type_query_source(), "<idl:type_query>", {}
)["remote_type_query"]
