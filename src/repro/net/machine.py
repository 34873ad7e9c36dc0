"""Machines: groups of domains joined by a network (Section 3.3).

The kernel treats calls between domains on the same machine as plain door
traversals; calls that cross machines are carried by the network fabric,
which models the paper's network servers ("a set of network servers
extend the door mechanism transparently over the network").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kernel.domain import Domain
    from repro.kernel.nucleus import Kernel
    from repro.net.fabric import NetworkFabric

__all__ = ["Machine"]


class Machine:
    """One machine: a set of domains."""

    def __init__(self, kernel: "Kernel", name: str, fabric: "NetworkFabric | None") -> None:
        self.kernel = kernel
        self.name = name
        self.fabric = fabric
        self.domains: list["Domain"] = []
        #: region placement (set through ``fabric.place``); "" = unplaced
        self.region = ""
        self.zone = ""
        #: True after :meth:`crash` — gossip nodes on a crashed machine
        #: go silent (they neither probe nor answer)
        self.crashed = False

    def create_domain(self, name: str) -> "Domain":
        """Boot a domain on this machine."""
        domain = self.kernel.create_domain(name)
        domain.machine = self
        self.domains.append(domain)
        return domain

    def crash(self) -> None:
        """Power off the machine: every domain on it crashes."""
        self.crashed = True
        for domain in self.domains:
            self.kernel.crash_domain(domain)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.name!r} domains={len(self.domains)}>"
