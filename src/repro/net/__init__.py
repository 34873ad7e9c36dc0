"""Network layer: machines and the network fabric.

Models the paper's "set of network servers [that] extend the door
mechanism transparently over the network" (Section 3.3): the fabric
carries a cross-machine door call and charges each end's network server
for translating door identifiers to and from network form.  It also
offers the unreliable datagram service the video subcontract's media
path uses.
"""

from repro.net.fabric import NetworkFabric
from repro.net.machine import Machine

__all__ = ["NetworkFabric", "Machine"]
