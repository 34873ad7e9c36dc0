"""The runtime environment: one call to stand up a small Spring world.

``Environment`` wires together everything a paper scenario needs:

* a kernel and a network fabric with machines;
* a name service (with each new domain handed a root-context capability
  in ``domain.locals["naming_root"]``, the way every Spring domain is
  booted with its name-service door);
* per-domain subcontract registries, seeded with the standard library or
  a restricted set, each with a discovery service that maps subcontract
  IDs to library names through the naming service and loads libraries
  from the trusted search path (Section 6.2);
* per-machine cache managers, registered in the machine-local naming
  context the caching subcontract resolves (Section 8.2).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.discovery import DiscoveryService, LibraryLoader
from repro.core.registry import SubcontractRegistry
from repro.kernel.clock import CostModel
from repro.kernel.nucleus import Kernel
from repro.net.fabric import NetworkFabric
from repro.net.machine import Machine
from repro.services.cachemgr import DEFAULT_CACHEABLE_OPS, CacheManagerService
from repro.services.naming import NameService
from repro.subcontracts import standard_subcontracts

if TYPE_CHECKING:
    from repro.core.object import SpringObject
    from repro.core.subcontract import ClientSubcontract
    from repro.kernel.domain import Domain

__all__ = ["Environment"]


class Environment:
    """A self-contained distributed world for examples, tests, benches."""

    def __init__(
        self,
        latency_us: float = 1200.0,
        cost_model: CostModel | None = None,
        datagram_loss: float = 0.0,
        trusted_lib_dirs: Iterable[Path | str] = (),
        with_naming: bool = True,
        seed: int = 1993,
        transport: str = "sim",
    ) -> None:
        if transport not in ("sim", "proc"):
            raise ValueError(f"unknown transport {transport!r} (sim or proc)")
        self.kernel = Kernel(cost_model)
        self.clock = self.kernel.clock
        self.seed = seed
        #: which fabric carries cross-machine door calls: the in-process
        #: simulated fabric ("sim", the deterministic tier-1 default) or
        #: the real multiprocess fabric ("proc", installed on demand)
        self.transport = transport
        self.procfabric = None
        #: gossip membership / leader election, installed on demand
        self.membership = None
        self.election = None
        self.fabric = NetworkFabric(
            self.kernel,
            latency_us=latency_us,
            datagram_loss=datagram_loss,
            seed=seed,
        )
        self.loader = LibraryLoader(list(trusted_lib_dirs), clock=self.clock)
        self.name_service: NameService | None = None
        if with_naming:
            ns_machine = self.fabric.create_machine("nameserver")
            ns_domain = ns_machine.create_domain("naming")
            registry = SubcontractRegistry(ns_domain)
            registry.register_many(standard_subcontracts())
            self.name_service = NameService(ns_domain)
        #: cache manager services by (machine name, manager name)
        self.cache_managers: dict[tuple[str, str], CacheManagerService] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def machine(self, name: str, region: str = "", zone: str = "") -> Machine:
        """Get or create a machine, optionally placing it in a region."""
        existing = self.fabric.machines.get(name)
        if existing is not None:
            if region:
                self.fabric.place(existing, region, zone)
            return existing
        return self.fabric.create_machine(name, region=region, zone=zone)

    def create_domain(
        self,
        machine: Machine | str,
        name: str,
        subcontracts: Iterable[type["ClientSubcontract"]] | None = None,
        with_discovery: bool = True,
    ) -> "Domain":
        """Boot a domain: registry seeded, naming root planted, discovery
        wired.

        ``subcontracts`` restricts the "linked-in standard libraries"; a
        restricted domain must still include the cluster client if it is
        to talk to the naming service.
        """
        if isinstance(machine, str):
            machine = self.machine(machine)
        domain = machine.create_domain(name)
        registry = SubcontractRegistry(domain)
        registry.register_many(
            standard_subcontracts() if subcontracts is None else subcontracts
        )
        if self.name_service is not None:
            naming_root = self.name_service.root_for(domain)
            domain.locals["naming_root"] = naming_root
            if with_discovery:
                registry.discovery = self._discovery_for(naming_root)
        return domain

    # ------------------------------------------------------------------
    # dynamic subcontract discovery (Section 6.2)
    # ------------------------------------------------------------------

    def _discovery_for(self, naming_root: "SpringObject") -> DiscoveryService:
        def resolver(subcontract_id: str) -> str | None:
            try:
                return naming_root.resolve_label(f"/subcontracts/{subcontract_id}")
            except Exception:
                return None

        return DiscoveryService(resolver, self.loader)

    def register_subcontract_library(
        self, subcontract_id: str, library_name: str
    ) -> None:
        """Administrator action: publish the subcontract-id -> library
        mapping in the network naming context (Section 6.2)."""
        if self.name_service is None:
            raise RuntimeError("environment was built without a naming service")
        self.name_service.root_impl.bind_label(
            f"/subcontracts/{subcontract_id}", library_name
        )

    def add_trusted_lib_dir(self, directory: Path | str) -> None:
        """Administrator action: extend the designated trusted search path."""
        self.loader.trusted_paths.append(Path(directory).resolve())

    # ------------------------------------------------------------------
    # cache managers (Section 8.2)
    # ------------------------------------------------------------------

    def install_cache_manager(
        self,
        machine: Machine | str,
        name: str = "default",
        cacheable_ops: tuple[str, ...] = DEFAULT_CACHEABLE_OPS,
    ) -> CacheManagerService:
        """Run a cache manager on a machine and register it in the
        machine-local naming context the caching subcontract searches."""
        if isinstance(machine, str):
            machine = self.machine(machine)
        key = (machine.name, name)
        if key in self.cache_managers:
            raise ValueError(f"machine {machine.name!r} already runs cache {name!r}")
        domain = self.create_domain(machine, f"cachemgr:{machine.name}:{name}")
        service = CacheManagerService(domain, cacheable_ops)
        naming_root = domain.locals["naming_root"]
        naming_root.rebind(
            f"/machines/{machine.name}/caches/{name}",
            service.manager.spring_copy(),
        )
        self.cache_managers[key] = service
        return service

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def install_chaos(self, seed: int | None = None):
        """Install a deterministic fault plane on this world.

        All fault injection — link drop/delay/duplicate/reorder, transient
        door failures, crash-mid-call, scheduled crashes — is driven by
        one ``random.Random(seed)`` (defaulting to the environment's own
        seed) and the simulated clock, so a run replays bit-for-bit.
        Returns the live :class:`repro.runtime.chaos.FaultPlane` (also at
        ``env.kernel.chaos``).
        """
        from repro.runtime.chaos import install_chaos

        return install_chaos(
            self.kernel, self.fabric, seed=self.seed if seed is None else seed
        )

    def uninstall_chaos(self) -> None:
        """Remove the fault plane; the hot path reverts to fault-free."""
        self.kernel.chaos = None

    def install_admission(self, seed: int | None = None):
        """Install overload protection (admission control) on this world.

        Returns the live
        :class:`repro.runtime.admission.AdmissionController` (also at
        ``env.kernel.admission``); attach per-door or per-domain
        :class:`~repro.runtime.admission.AdmissionPolicy` objects with
        ``govern`` / ``govern_domain``.  The controller's only rng draws
        jitter for ``retry_after_us`` hints, seeded here (defaulting to
        the environment's own seed) so shed-heavy runs replay.
        """
        from repro.runtime.admission import install_admission

        return install_admission(
            self.kernel, seed=self.seed if seed is None else seed
        )

    def uninstall_admission(self) -> None:
        """Remove admission control; doors revert to unbounded admission."""
        self.kernel.admission = None

    def install_tsan(self, **options):
        """Install the springtsan happens-before race detector.

        Door calls, thread start/join, instrumented locks, and marshal
        pool transfers become synchronization edges; accesses to tracked
        shared state (``domain.locals``, capability tables, anything
        declared via ``@shared_state`` / ``tsan.track``) are checked and
        two unordered accesses with disjoint locksets raise
        :class:`repro.runtime.tsan.DataRaceError` naming both sites.
        Returns the live :class:`repro.runtime.tsan.TsanRuntime` (also
        at ``env.kernel.tsan``).  No simulated time is charged either
        way — sim totals are bit-for-bit identical with and without it.
        """
        from repro.runtime.tsan import install_tsan

        return install_tsan(self.kernel, **options)

    def uninstall_tsan(self) -> None:
        """Remove the race detector; hooks revert to one-branch no-ops."""
        from repro.runtime.tsan import uninstall_tsan

        uninstall_tsan(self.kernel)

    def install_tracer(self, ring_capacity: int | None = None):
        """Turn on end-to-end tracing for this world.

        Every ``remote_call`` (and fused stub) from now on opens an
        invoke span; context propagates through doors, the fabric, and
        network servers into server-side dispatch.  Returns the live
        :class:`repro.obs.tracer.Tracer` (also at ``env.kernel.tracer``).
        """
        from repro.obs.tracer import install_tracer

        if ring_capacity is None:
            return install_tracer(self.kernel)
        return install_tracer(self.kernel, ring_capacity=ring_capacity)

    def install_windows(self, **options):
        """Attach windowed telemetry (obs v2) to this world's tracer.

        Installs a tracer first if the world is untraced.  ``options``
        pass through to :class:`repro.obs.windows.WindowedSeries`
        (``window_us``, ``retention``, ``alpha``).  Returns the live
        series (also at ``env.kernel.tracer.windows``).  While
        installed, every recorded span/event charges ``window_probe``
        simulated time — deterministic, and absent when uninstalled.
        """
        from repro.obs.windows import install_windows

        tracer = self.kernel.tracer
        if not tracer.enabled:
            tracer = self.install_tracer()
        return install_windows(tracer, **options)

    def uninstall_windows(self) -> None:
        """Detach windowed telemetry; the tracer feed reverts to no-op."""
        tracer = self.kernel.tracer
        if tracer.enabled:
            tracer.windows = None

    def install_obsd(self, domain: "Domain", engine=None):
        """Serve this world's telemetry through an ``obsd`` door.

        Exports the introspection service from ``domain`` (an ordinary
        singleton-subcontract export); hand objects to clients with
        ``service.object_for(client_domain)``.  Returns the live
        :class:`repro.services.obsd.ObsdService`.
        """
        from repro.services.obsd import ObsdService

        return ObsdService(domain, engine)

    # ------------------------------------------------------------------
    # self-organization (gossip membership + leader election)
    # ------------------------------------------------------------------

    def install_membership(
        self, machines=None, seed: int | None = None, plant: bool = True, **knobs
    ):
        """Start SWIM gossip membership on this world.

        ``machines`` is the member set (names or :class:`Machine`
        objects); it defaults to every machine except the name server.
        The nodes bootstrap knowing each other and probe on the sim
        clock — drive the protocol with ``membership.run_for(...)``.
        With ``plant=True`` every domain already booted on a member
        machine gets its machine's view wired into its replicon /
        cluster / reconnectable client vectors.  Returns the live
        :class:`repro.runtime.membership.MembershipService` (also at
        ``env.membership``).  ``knobs`` pass through to
        :class:`~repro.runtime.membership.MembershipConfig`.
        """
        from repro.runtime.membership import MembershipService

        if self.membership is not None:
            raise RuntimeError("a membership service is already installed")
        if machines is None:
            members = [
                machine
                for name, machine in sorted(self.fabric.machines.items())
                if name != "nameserver"
            ]
        else:
            members = [
                self.machine(m) if isinstance(m, str) else m for m in machines
            ]
        service = MembershipService(
            self.kernel,
            self.fabric,
            seed=self.seed if seed is None else seed,
            **knobs,
        )
        service.bootstrap(members)
        if plant:
            for machine in members:
                for domain in machine.domains:
                    if domain.alive:
                        service.plant(domain)
        self.membership = service
        return service

    def install_election(
        self, electorate=None, seed: int | None = None, **knobs
    ):
        """Start lease-based leader election over the membership service.

        Requires :meth:`install_membership` first.  ``electorate``
        defaults to every membership node and stays fixed (majority is
        counted against it, so a minority partition can never elect).
        Returns the live
        :class:`repro.runtime.election.ElectionService` (also at
        ``env.election``).  ``knobs`` pass through to
        :class:`~repro.runtime.election.ElectionConfig`.  ``seed`` is
        accepted for signature symmetry but derivation happens from the
        membership service's seed to keep one seed per world.
        """
        from repro.runtime.election import ElectionService

        if self.membership is None:
            raise RuntimeError("install_membership before install_election")
        if self.election is not None:
            raise RuntimeError("an election service is already installed")
        service = ElectionService(self.membership, electorate=electorate, **knobs)
        self.election = service
        return service

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------

    def install_procfabric(self, bootstrap, workers: int = 2, **options):
        """Start the multiprocess fabric: real OS-process workers.

        Only available when the environment was built with
        ``transport="proc"`` — the in-process simulated fabric stays the
        deterministic default, and a world never mixes the two by
        accident.  ``bootstrap(env, index)`` runs inside each forked
        worker and returns its named exports; ``options`` pass through to
        :class:`repro.net.procfabric.ProcFabric` (``seed``, ``trace``,
        ``windows``, ``log_dir``, ``call_timeout_s``).  Returns the
        started fabric (also at ``env.procfabric``).
        """
        from repro.net.procfabric import ProcFabric, ProcFabricError

        if self.transport != "proc":
            raise ProcFabricError(
                "environment transport is 'sim'; build it with "
                "Environment(transport='proc') to use the process fabric"
            )
        if self.procfabric is not None:
            raise ProcFabricError("a process fabric is already installed")
        options.setdefault("seed", self.seed)
        fabric = ProcFabric(self.kernel, workers=workers, bootstrap=bootstrap, **options)
        fabric.start()
        self.procfabric = fabric
        return fabric

    def uninstall_procfabric(self, join_timeout_s: float = 5.0) -> None:
        """Shut the process fabric's workers down (idempotent)."""
        if self.procfabric is not None:
            self.procfabric.shutdown(join_timeout_s)
            self.procfabric = None

    # ------------------------------------------------------------------
    # naming conveniences
    # ------------------------------------------------------------------

    def bind(self, domain: "Domain", path: str, obj: "SpringObject") -> None:
        """Bind an object (moved from ``domain``) at a naming path."""
        domain.locals["naming_root"].rebind(path, obj)

    def resolve(self, domain: "Domain", path: str) -> "SpringObject":
        """Resolve a naming path into a generic object owned by ``domain``."""
        return domain.locals["naming_root"].resolve(path)
