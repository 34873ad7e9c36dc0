"""The paper's contribution: the subcontract framework.

Subcontracts are replaceable modules given control of the basic mechanisms
of object invocation and argument passing (Section 1).  This package
defines the Spring object structure (method table + subcontract operations
vector + representation), the client and server operation vectors, the
per-domain registry with compatible-subcontract routing, and dynamic
discovery of new subcontract libraries.
"""

from repro.core.errors import (
    NarrowError,
    ObjectConsumedError,
    RemoteApplicationError,
    RevokedObjectError,
    SubcontractError,
    UnknownSubcontractError,
    UntrustedLibraryError,
)
from repro.core.discovery import DiscoveryService, LibraryLoader
from repro.core.identity import validate_subcontract_id
from repro.core.object import MethodTable, SpringObject
from repro.core.registry import SubcontractRegistry, ensure_registry
from repro.core.stubs import (
    STATUS_EXCEPTION,
    STATUS_OK,
    TYPE_QUERY_OP,
    narrow,
    remote_type_query,
)
from repro.core.subcontract import ClientSubcontract, ServerSubcontract

__all__ = [
    "SpringObject",
    "MethodTable",
    "ClientSubcontract",
    "ServerSubcontract",
    "SubcontractRegistry",
    "ensure_registry",
    "DiscoveryService",
    "LibraryLoader",
    "validate_subcontract_id",
    "narrow",
    "remote_type_query",
    "STATUS_OK",
    "STATUS_EXCEPTION",
    "TYPE_QUERY_OP",
    "SubcontractError",
    "ObjectConsumedError",
    "UnknownSubcontractError",
    "UntrustedLibraryError",
    "NarrowError",
    "RemoteApplicationError",
    "RevokedObjectError",
]
