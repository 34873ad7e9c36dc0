"""Specialized stubs for (type, subcontract) combinations (Section 9.1).

"As a future direction, we are interested in providing specialized stubs
for some particularly popular and performance-critical combinations of
types and subcontracts.  We would still keep the general purpose stubs
available for these types, so as to be able to deal with different
subcontracts, but when we were lucky enough to receive an object that
happened to be of the right type and subcontract we would be able to use
the specialized stubs."

:func:`specialize` installs a *fused* stub table for one interface and
one single-door subcontract.  The stubs come from the code generator's
one client template in its fused variant, which inlines the subcontract's
invoke and so skips the two client-side indirect calls Section 9.3
charges.  A fused stub depends only on its operation's declaration, so
each is compiled once per module, by its declaring interface, and shared
by every interface and fusable subcontract.  Object fabrication
(:meth:`ClientSubcontract.make_object`) picks the table up when — and only when — the fabricating subcontract
matches; everything else keeps the general-purpose stubs, so flexibility
is not lost.

Only subcontracts whose representation is a bare door identifier and
whose invoke is a plain door call can be fused this way; that is exactly
the "popular and performance-critical" case the paper has in mind.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.idl.codegen import generate_fused_source
from repro.idl.compiler import IdlModule, load_generated

if TYPE_CHECKING:
    from repro.core.object import MethodTable

__all__ = ["specialize", "FUSABLE_SUBCONTRACTS"]

#: subcontracts whose client vector is exactly "door_call on rep.door"
FUSABLE_SUBCONTRACTS = frozenset({"singleton", "simplex"})

_spec_counter = itertools.count(1)


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
    # Fused stubs run in the module's namespace: its header imports,
    # struct helpers and bindings.
    namespace = module._namespace
    names = {op.name: f"_spec_{op.introduced_by}_{op.name}" for op in binding.operations.values()}
    for op in binding.operations.values():
        if names[op.name] not in namespace:  # its declarer's stubs are not compiled yet
            filename = f"<idl:{module.name}.{op.introduced_by}@fused#{next(_spec_counter)}>"
            source = generate_fused_source(module.binding(op.introduced_by))
            load_generated(source, filename, namespace)
    table = {op: namespace[name] for op, name in names.items()}
    binding.install_specialized_table(subcontract_id, table)
    return table
