"""Per-domain subcontract registries (Sections 6.1-6.2).

"A program will typically be linked with a set of libraries that provide a
set of standard subcontracts.  However at run-time the program may
encounter objects which use subcontracts that are not in its standard
libraries."

Each domain owns one registry mapping subcontract IDs to client
subcontract instances.  A lookup miss consults the registry's discovery
service (if configured), which maps the ID to a library name through a
naming context and dynamically loads the library from a trusted search
path — the Python analogue of ``dlopen("replicon.so")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.core.errors import UnknownSubcontractError
from repro.core.subcontract import ClientSubcontract

if TYPE_CHECKING:
    from repro.core.discovery import DiscoveryService
    from repro.kernel.domain import Domain

__all__ = ["SubcontractRegistry", "ensure_registry"]


class SubcontractRegistry:
    """Maps subcontract IDs to client subcontract instances for one domain."""

    def __init__(
        self,
        domain: "Domain",
        discovery: "DiscoveryService | None" = None,
    ) -> None:
        self.domain = domain
        self.discovery = discovery
        self._subcontracts: dict[str, ClientSubcontract] = {}
        #: IDs that arrived via dynamic discovery, in arrival order
        #: (tests and the E9 bench observe this).
        self.dynamically_loaded: list[str] = []
        domain.subcontract_registry = self

    def register(self, subcontract_class: type[ClientSubcontract]) -> ClientSubcontract:
        """Instantiate and install a client subcontract for this domain.

        Re-registering the same ID replaces the instance (used when an
        upgraded library is loaded).
        """
        instance = subcontract_class(self.domain)
        instance.membership = self.domain.locals.get("membership")
        self._subcontracts[instance.id] = instance
        return instance

    def plant_membership(self, view: Any) -> None:
        """Hand the domain's gossip view to every client vector: those
        registered already and, through :meth:`register`, those to come —
        so the order of plant and registration does not matter."""
        self.domain.locals["membership"] = view
        for vector in self._subcontracts.values():
            vector.membership = view

    def register_many(
        self, subcontract_classes: Iterable[type[ClientSubcontract]]
    ) -> None:
        """Instantiate and install several client subcontracts."""
        for cls in subcontract_classes:
            self.register(cls)

    def knows(self, subcontract_id: str) -> bool:
        """True when code for the subcontract ID is already linked in."""
        return subcontract_id in self._subcontracts

    def lookup(self, subcontract_id: str) -> ClientSubcontract:
        """Find the code for a subcontract ID, dynamically loading it on a
        miss (Section 6.2)."""
        found = self._subcontracts.get(subcontract_id)
        if found is not None:
            return found
        if self.discovery is None:
            raise UnknownSubcontractError(
                f"domain {self.domain.name!r} has no code for subcontract "
                f"{subcontract_id!r} and no discovery service is configured"
            )
        subcontract_class = self.discovery.obtain(subcontract_id)
        instance = self.register(subcontract_class)
        self.dynamically_loaded.append(subcontract_id)
        return instance

    def known_ids(self) -> tuple[str, ...]:
        """The sorted IDs of every linked-in subcontract."""
        return tuple(sorted(self._subcontracts))


def ensure_registry(domain: "Domain") -> SubcontractRegistry:
    """Return the domain's registry, creating one seeded with the standard
    subcontract library if the domain has none yet.

    This mirrors "linked with a set of libraries that provide a set of
    standard subcontracts": most domains get the full standard set; tests
    that exercise dynamic discovery build their registries by hand with a
    restricted set instead.
    """
    if domain.subcontract_registry is not None:
        return domain.subcontract_registry
    from repro.subcontracts import standard_subcontracts

    registry = SubcontractRegistry(domain)
    registry.register_many(standard_subcontracts())
    return registry
