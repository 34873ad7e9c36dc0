"""The seven journeys: world builders, seeded op lists, reference models.

Every workload is one closed loop: a single synchronous caller replays a
pre-generated op list against a world built from the public ``repro``
API.  An *op* is a small tuple ``(kind, *ints)`` — payloads, keys and
values are referenced by index into pools generated from the same seed,
so the op list is cheap to hash and nothing is allocated or formatted in
the timed loop.  ``bind`` turns ops into ``(callable, args)`` pairs; the
reference model (``expect``) yields what each call must return and is
advanced in lock-step with the world, outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import random

from repro.core import narrow
from repro.idl.compiler import compile_idl
from repro.runtime.env import Environment
from repro.subcontracts.singleton import SingletonServer

__all__ = ["WORKLOADS", "Workload", "make_workload", "pin_to_first_cpu"]

SUITE_IDL = """
interface counter {
    int32 add(int32 n);
    int32 total();
}

interface blob_store {
    bytes roundtrip(bytes data);
    void absorb(bytes data);
    int64 absorbed();
}
"""


def pin_to_first_cpu() -> int:
    """Pin this process to the first CPU it may run on; returns the CPU.

    One synchronous caller has no parallelism to use, and an unpinned
    ``proc_call`` is bimodal on a small VM (cross-core wake-ups).
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ----------------------------------------------------------------------
# the suite's own server implementations (the ``handler`` layer)
# ----------------------------------------------------------------------


class CounterImpl:
    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def total(self) -> int:
        return self.value


class CallCounterImpl:
    """The ``proc_call`` counter: ``total`` returns how many times it has
    been called, so every reply proves its call ran exactly once."""

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def total(self) -> int:
        self.value += 1
        return self.value


class BlobImpl:
    def __init__(self) -> None:
        self.absorbed_bytes = 0

    def roundtrip(self, data: bytes) -> bytes:
        return data

    def absorb(self, data: bytes) -> None:
        self.absorbed_bytes += len(data)

    def absorbed(self) -> int:
        return self.absorbed_bytes


# ----------------------------------------------------------------------
# base
# ----------------------------------------------------------------------


class Workload:
    """One journey.  Subclasses fill in the world, the ops and the model."""

    name = ""
    #: ops per timed block at full scale (the issue's prototype rates)
    block_ops = 0
    #: methods of the workload itself that are the op (suite code, so the
    #: ``handler`` layer); empty when the op is a bare stub call
    app_methods: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.env: Environment | None = None
        #: interface bindings whose stub methods / skeletons / server
        #: implementations the traced pass wraps
        self.bindings: list = []
        self.impl_classes: list[type] = []
        #: (domain, subcontract id) pairs naming the client vectors in use
        self.client_vectors: list[tuple] = []

    # -- world ----------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything the world started (worker processes)."""

    @property
    def clock(self):
        return self.env.clock

    # -- ops ------------------------------------------------------------

    def gen_ops(self, count: int) -> list[tuple]:
        raise NotImplementedError

    def pools_digest(self, h: "hashlib._Hash") -> None:
        """Fold the seeded pools the ops index into the digest."""

    def digest(self, ops: list[tuple]) -> str:
        h = hashlib.sha256()
        self.pools_digest(h)
        for op in ops:
            h.update(repr(op).encode())
        return h.hexdigest()

    def bind(self, ops: list[tuple]) -> list[tuple]:
        """``(callable, args)`` per op; no allocation left for the loop."""
        raise NotImplementedError

    def expect(self, ops: list[tuple]) -> list:
        """Advance the reference model over ``ops``; the value each call
        must return."""
        raise NotImplementedError

    # -- checks outside the timed region --------------------------------

    def begin_measure(self) -> None:
        """Called once, after warm-up, before the first timed block."""

    def after_block(self, op_count: int) -> list[str]:
        """Per-block invariants; returns mismatch descriptions."""
        return []

    def final_check(self) -> list[str]:
        """Final world state against the model; mismatch descriptions."""
        return []

    # -- layer facts only the world knows --------------------------------

    def layer_counters(self) -> dict[str, float]:
        """Cumulative world counters the traced pass reads before/after."""
        return {}


def _singleton_pair(env: Environment, machine: str = "m0"):
    server = env.create_domain(machine, "server")
    client = env.create_domain(machine, "client")
    return server, client


def _export_to(env, server, client, impl, binding, path):
    """Export ``impl`` from ``server`` and hand the object to ``client``
    the way Spring programs do: through the naming service."""
    obj = SingletonServer(server).export(impl, binding)
    env.bind(server, path, obj)
    return narrow(env.resolve(client, path), binding)


# ----------------------------------------------------------------------
# local_call / local_call_traced
# ----------------------------------------------------------------------


class LocalCall(Workload):
    name = "local_call"
    block_ops = 80_000

    def build(self) -> None:
        self.env = env = Environment()
        module = compile_idl(SUITE_IDL, module_name="suite.local")
        binding = module.binding("counter")
        server, client = _singleton_pair(env)
        self.impl = CounterImpl()
        self.stub = _export_to(env, server, client, self.impl, binding, "/suite/counter")
        self.model = 0
        self.bindings = [binding]
        self.impl_classes = [CounterImpl]
        self.client_vectors = [(client, "singleton")]

    def gen_ops(self, count: int) -> list[tuple]:
        rng = self.rng
        return [("total",) if rng.random() < 0.5 else ("add", 1) for _ in range(count)]

    def bind(self, ops):
        total = (self.stub.total, ())
        add = (self.stub.add, (1,))
        return [total if op[0] == "total" else add for op in ops]

    def expect(self, ops):
        value = self.model
        out = []
        for op in ops:
            if op[0] == "add":
                value += op[1]
            out.append(value)
        self.model = value
        return out

    def final_check(self):
        got = self.stub.total()
        if got != self.model or self.impl.value != self.model:
            return [f"counter total {got} / impl {self.impl.value} != model {self.model}"]
        return []


class LocalCallTraced(LocalCall):
    name = "local_call_traced"
    block_ops = 20_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Same world and op list as local_call for the same seed.
        self.rng = random.Random(f"local_call:{seed}")

    def build(self) -> None:
        super().build()
        self.windows = self.env.install_windows()

    def layer_counters(self):
        tracer = self.env.kernel.tracer
        return {
            "tracer.dropped": tracer.dropped(),
            "windows.recorded": self.windows.recorded,
        }


# ----------------------------------------------------------------------
# local_blob
# ----------------------------------------------------------------------

_VARIANTS = 4  # distinct payloads per size, so replies are checked by content


def _payload_pool(rng: random.Random, sizes) -> list[list[bytes]]:
    return [[rng.randbytes(size) for _ in range(_VARIANTS)] for size in sizes]


def _digest_payloads(pool: list[list[bytes]], h) -> None:
    for variants in pool:
        for payload in variants:
            h.update(payload)


class LocalBlob(Workload):
    name = "local_blob"
    block_ops = 60_000
    sizes = (64, 1024, 16 * 1024, 64 * 1024)

    def build(self) -> None:
        self.env = env = Environment()
        module = compile_idl(SUITE_IDL, module_name="suite.blob")
        binding = module.binding("blob_store")
        server, client = _singleton_pair(env)
        self.impl = BlobImpl()
        self.stub = _export_to(env, server, client, self.impl, binding, "/suite/blob")
        self.pool = _payload_pool(self.rng, self.sizes)
        self.model_absorbed = 0
        self.bindings = [binding]
        self.impl_classes = [BlobImpl]
        self.client_vectors = [(client, "singleton")]

    def pools_digest(self, h):
        _digest_payloads(self.pool, h)

    def gen_ops(self, count):
        rng = self.rng
        n = len(self.sizes)
        return [
            (
                "roundtrip" if rng.random() < 0.5 else "absorb",
                rng.randrange(n),
                rng.randrange(_VARIANTS),
            )
            for _ in range(count)
        ]

    def bind(self, ops):
        fns = {"roundtrip": self.stub.roundtrip, "absorb": self.stub.absorb}
        args = [[(p,) for p in variants] for variants in self.pool]
        return [(fns[kind], args[size][variant]) for kind, size, variant in ops]

    def expect(self, ops):
        out = []
        for kind, size, variant in ops:
            payload = self.pool[size][variant]
            if kind == "roundtrip":
                out.append(payload)
            else:
                self.model_absorbed += len(payload)
                out.append(None)
        return out

    def final_check(self):
        got = self.stub.absorbed()
        if got != self.model_absorbed:
            return [f"absorbed {got} bytes != model {self.model_absorbed}"]
        return []


# ----------------------------------------------------------------------
# remote_kv
# ----------------------------------------------------------------------


class RemoteKV(Workload):
    name = "remote_kv"
    block_ops = 40_000
    keys = 1024
    values = 64

    def build(self) -> None:
        from repro.services.kv import ReplicatedKVService

        self.env = env = Environment()
        replicas = [env.create_domain(f"kv{i}", f"replica{i}") for i in range(3)]
        client = env.create_domain("kvclient", "client")
        self.service = service = ReplicatedKVService(replicas)
        env.bind(replicas[0], "/suite/kv", service.store_for(replicas[0]))
        self.stub = narrow(env.resolve(client, "/suite/kv"), service.binding)
        rng = self.rng
        self.key_pool = [f"key-{i:04d}" for i in range(self.keys)]
        # 16 to 48 characters: a put then moves other bytes than a get, so
        # sim_us_per_call follows the seeded op mix instead of sitting still
        self.value_pool = [
            "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randrange(16, 49)))
            for _ in range(self.values)
        ]
        self.model: dict[str, str] = {}
        for i, key in enumerate(self.key_pool):
            value = self.value_pool[i % self.values]
            self.stub.put(key, value)
            self.model[key] = value
        self.bindings = [service.binding]
        self.impl_classes = [type(service.replicas[0])]
        self.client_vectors = [(client, "replicon")]

    def pools_digest(self, h):
        for value in self.value_pool:
            h.update(value.encode())

    def _key(self) -> int:
        # Pareto(1.2) popularity over key ranks; the tail folds back in.
        return (int(self.rng.paretovariate(1.2)) - 1) % self.keys

    def gen_ops(self, count):
        rng = self.rng
        return [
            ("get", self._key())
            if rng.random() < 0.9
            else ("put", self._key(), rng.randrange(self.values))
            for _ in range(count)
        ]

    def bind(self, ops):
        get, put = self.stub.get, self.stub.put
        keys, values = self.key_pool, self.value_pool
        get_args = [(k,) for k in keys]
        return [
            (get, get_args[op[1]]) if op[0] == "get" else (put, (keys[op[1]], values[op[2]]))
            for op in ops
        ]

    def expect(self, ops):
        model, keys, values = self.model, self.key_pool, self.value_pool
        out = []
        for op in ops:
            if op[0] == "get":
                out.append(model[keys[op[1]]])
            else:
                model[keys[op[1]]] = values[op[2]]
                out.append(None)
        return out

    def final_check(self):
        problems = []
        for i, replica in enumerate(self.service.replicas):
            contents = {key: replica.get(key) for key in replica.keys()}
            if contents != self.model:
                problems.append(f"replica {i} contents differ from the dict model")
        return problems


# ----------------------------------------------------------------------
# cached_file
# ----------------------------------------------------------------------


class CachedFile(Workload):
    name = "cached_file"
    block_ops = 45_000
    files = 16
    offsets = 8
    chunk = 256

    def build(self) -> None:
        from repro.services.fs import FileImpl, FileServer

        self.env = env = Environment(latency_us=2000.0)
        self.manager = env.install_cache_manager("fsclient").impl
        server_domain = env.create_domain("fsserver", "fs")
        client = env.create_domain("fsclient", "user")
        self.server = server = FileServer(server_domain)
        env.bind(server_domain, "/suite/fs", server.root.spring_copy())
        fs = narrow(env.resolve(client, "/suite/fs"), server.module.binding("file_system"))
        rng = self.rng
        size = self.offsets * self.chunk
        self.paths = [f"/f{i:02d}" for i in range(self.files)]
        self.model = []
        self.stubs = []
        for path in self.paths:
            initial = rng.randbytes(size)
            fs.mkfile(path, initial)
            self.model.append(bytearray(initial))
            self.stubs.append(fs.open_cached(path))
        self.write_pool = [rng.randbytes(8) for _ in range(64)]
        self.reads_issued = 0
        binding = server.module.binding("cacheable_file")
        self.bindings = [binding]
        self.impl_classes = [FileImpl]
        self.client_vectors = [(client, "caching")]

    def pools_digest(self, h):
        for data in self.write_pool:
            h.update(data)
        for data in self.model:
            h.update(bytes(data))

    def gen_ops(self, count):
        """Exactly 5 % writes, shuffled.  A write costs about six
        cross-machine misses of 4 ms simulated time each, so drawing every
        op's kind on its own would move ``sim_us_per_call`` by 3 % from
        seed to seed through the write count alone."""
        rng = self.rng
        writes = round(count * 0.05)
        kinds = ["write"] * writes + ["read"] * (count - writes)
        rng.shuffle(kinds)
        return [
            ("read", rng.randrange(self.files), rng.randrange(self.offsets))
            if kind == "read"
            else (
                "write",
                rng.randrange(self.files),
                rng.randrange(self.offsets),
                rng.randrange(len(self.write_pool)),
            )
            for kind in kinds
        ]

    def bind(self, ops):
        chunk = self.chunk
        read_args = [(off * chunk, chunk) for off in range(self.offsets)]
        out = []
        for op in ops:
            stub = self.stubs[op[1]]
            if op[0] == "read":
                out.append((stub.read, read_args[op[2]]))
            else:
                out.append((stub.write, (op[2] * chunk, self.write_pool[op[3]])))
        return out

    def expect(self, ops):
        chunk = self.chunk
        out = []
        for op in ops:
            data = self.model[op[1]]
            off = op[2] * chunk
            if op[0] == "read":
                self.reads_issued += 1
                out.append(bytes(data[off : off + chunk]))
            else:
                payload = self.write_pool[op[3]]
                data[off : off + len(payload)] = payload
                out.append(len(payload))
        return out

    def begin_measure(self):
        self.reads_issued = 0
        self._lookups_at_start = self.manager.hit_count + self.manager.miss_count

    def final_check(self):
        problems = []
        for path, model in zip(self.paths, self.model):
            if bytes(self.server.inodes[path].data) != bytes(model):
                problems.append(f"file {path} bytes differ from the bytearray model")
        lookups = self.manager.hit_count + self.manager.miss_count - self._lookups_at_start
        if lookups != self.reads_issued:
            problems.append(
                f"cache hit+miss {lookups} != reads issued {self.reads_issued}"
            )
        return problems

    def layer_counters(self):
        return {
            "cachemgr.hits": self.manager.hit_count,
            "cachemgr.misses": self.manager.miss_count,
        }


# ----------------------------------------------------------------------
# saga_transfer
# ----------------------------------------------------------------------


class SagaTransfer(Workload):
    name = "saga_transfer"
    block_ops = 12_000
    app_methods = ("transfer",)
    accounts = 16
    opening = 1_000_000

    def build(self) -> None:
        from repro.runtime.saga import SagaCoordinator
        from repro.services.stable import DurableKVService, durable_kv_module

        self.env = env = Environment()
        self.banks = [
            DurableKVService(env, f"bank{i}", service_name=f"/services/bank{i}")
            for i in range(2)
        ]
        teller = env.create_domain("teller", "teller")
        self.coord = SagaCoordinator(teller, name="transfers")
        self.stubs = [bank.client_for(teller) for bank in self.banks]
        self.names = [f"acct-{i:02d}" for i in range(self.accounts)]
        self.model = [[self.opening] * self.accounts for _ in self.banks]
        for stub in self.stubs:
            for name in self.names:
                stub.put(name, str(self.opening))
        self.bindings = [durable_kv_module().binding("durable_kv")]
        self.impl_classes = [type(self.banks[0].impl)]
        self.client_vectors = [(teller, "reconnectable")]

    def gen_ops(self, count):
        rng = self.rng
        return [
            (
                "transfer",
                rng.randrange(2),
                rng.randrange(self.accounts),
                rng.randrange(self.accounts),
                rng.randrange(1, 10),
            )
            for _ in range(count)
        ]

    def transfer(self, src_bank: int, src: str, dst: str, amount: int):
        """One saga: debit one bank, credit the other, compensations
        registered; returns both new balances."""
        debit_from = self.stubs[src_bank]
        credit_to = self.stubs[1 - src_bank]
        with self.coord.begin("transfer") as saga:
            debited = saga.run(
                "debit",
                lambda: debit_from.adjust(src, -amount),
                compensation=lambda token: debit_from.adjust(src, amount),
                comp_token=src,
            )
            credited = saga.run(
                "credit",
                lambda: credit_to.adjust(dst, amount),
                compensation=lambda token: credit_to.adjust(dst, -amount),
                comp_token=dst,
            )
        return (debited, credited)

    def bind(self, ops):
        names = self.names
        transfer = self.transfer
        return [(transfer, (op[1], names[op[2]], names[op[3]], op[4])) for op in ops]

    def expect(self, ops):
        model = self.model
        out = []
        for _, src_bank, src, dst, amount in ops:
            model[src_bank][src] -= amount
            model[1 - src_bank][dst] += amount
            out.append((str(model[src_bank][src]), str(model[1 - src_bank][dst])))
        return out

    def begin_measure(self):
        self.committed_at_block = self.coord.committed
        self.coord.store.wipe(self.coord.record)

    def after_block(self, op_count):
        """Committed sagas equal the journal's ``.end = committed``
        records; then the record set is wiped so the journal (and the
        process) stays the same size block after block."""
        coord = self.coord
        journal = coord.journal_snapshot()
        ended = sum(
            1 for key, value in journal.items()
            if key.endswith(".end") and value == "committed"
        )
        committed = coord.committed - self.committed_at_block
        self.committed_at_block = coord.committed
        coord.store.wipe(coord.record)
        if not (ended == committed == op_count):
            return [
                f"{op_count} transfers, {committed} committed sagas, "
                f"{ended} journal '.end = committed' records"
            ]
        return []

    def final_check(self):
        problems = []
        total = 0
        for bank, (stub, model) in enumerate(zip(self.stubs, self.model)):
            for name, want in zip(self.names, model):
                got = int(stub.get(name))
                total += got
                if got != want:
                    problems.append(f"bank{bank} {name}: {got} != model {want}")
        if total != 2 * self.accounts * self.opening:
            problems.append(f"money not conserved: {total}")
        if self.coord.aborted:
            problems.append(f"{self.coord.aborted} sagas aborted")
        return problems

    def layer_counters(self):
        memos = [bank.dedup_memo for bank in self.banks]
        return {
            "stable.commits": sum(bank.store.commits for bank in self.banks)
            + self.coord.store.commits,
            "saga.journal_writes": self.coord.store.commits,
            "idem.hits": sum(m.hits for m in memos),
            "idem.misses": sum(m.misses for m in memos),
        }


# ----------------------------------------------------------------------
# proc_call
# ----------------------------------------------------------------------


def _proc_bootstrap(env: Environment, index: int) -> dict:
    """Runs inside the forked worker: pin, export the two objects."""
    pin_to_first_cpu()
    module = compile_idl(SUITE_IDL, module_name="suite.proc.worker")
    domain = env.create_domain("worker-machine", f"worker{index}")
    server = SingletonServer(domain)
    return {
        "counter": server.export(CallCounterImpl(), module.binding("counter")),
        "blob": server.export(BlobImpl(), module.binding("blob_store")),
    }


class ProcCall(Workload):
    name = "proc_call"
    block_ops = 18_000
    sizes = (64, 1024, 4096, 16 * 1024)

    def build(self) -> None:
        self.env = env = Environment(transport="proc")
        self.fabric = fabric = env.install_procfabric(_proc_bootstrap, workers=1)
        module = compile_idl(SUITE_IDL, module_name="suite.proc")
        client = env.create_domain("supervisor", "client")
        self.counter = fabric.bind(client, "counter", module.binding("counter"))
        self.blob = fabric.bind(client, "blob", module.binding("blob_store"))
        self.pool = _payload_pool(self.rng, self.sizes)
        self.model_calls = 0
        self.model_absorbed = 0
        self.bindings = [module.binding("counter"), module.binding("blob_store")]
        self.client_vectors = [(client, "singleton")]

    def close(self) -> None:
        self.env.uninstall_procfabric()

    def pools_digest(self, h):
        _digest_payloads(self.pool, h)

    def gen_ops(self, count):
        rng = self.rng
        n = len(self.sizes)
        return [
            ("total",)
            if rng.random() < 0.7
            else ("absorb", rng.randrange(n), rng.randrange(_VARIANTS))
            for _ in range(count)
        ]

    def bind(self, ops):
        total = (self.counter.total, ())
        absorb = self.blob.absorb
        args = [[(p,) for p in variants] for variants in self.pool]
        return [
            total if op[0] == "total" else (absorb, args[op[1]][op[2]]) for op in ops
        ]

    def expect(self, ops):
        out = []
        for op in ops:
            if op[0] == "total":
                self.model_calls += 1
                out.append(self.model_calls)
            else:
                self.model_absorbed += len(self.pool[op[1]][op[2]])
                out.append(None)
        return out

    def final_check(self):
        problems = []
        # add(0) reads the worker's call count without bumping it
        calls = self.counter.add(0)
        if calls != self.model_calls:
            problems.append(f"worker counted {calls} total() calls != model {self.model_calls}")
        absorbed = self.blob.absorbed()
        if absorbed != self.model_absorbed:
            problems.append(f"worker absorbed {absorbed} bytes != model {self.model_absorbed}")
        return problems

    def layer_counters(self):
        stats = self.fabric.stats()[0]
        return {
            "procfabric.calls": stats["calls"],
            "procfabric.ring_payloads": stats["ring_payloads"],
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        LocalCall,
        LocalBlob,
        RemoteKV,
        CachedFile,
        SagaTransfer,
        ProcCall,
        LocalCallTraced,
    )
}


def make_workload(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r} (have {sorted(WORKLOADS)})") from None
