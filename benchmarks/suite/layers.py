"""Per-layer measurement taken from outside the program.

Nothing under ``src/`` knows it is being measured: for the *traced pass*
the suite wraps public functions of each layer (class attributes, module
globals, door handlers) with span recorders, replays the op list once,
and puts every original back by identity.  For the *counted pass* it
counts Python ``call`` events by source file under ``sys.setprofile``.

A span is ``(fn, start_ns, end_ns, parent)`` while recording and
``(op_id, layer, name, start_ns, end_ns, parent)`` when written out.  A
layer's self time is its spans' duration minus the part their child
spans cover, minus the wrapper's own cost as calibrated on an empty
function.
"""

from __future__ import annotations

import statistics
import sys
from bisect import bisect_right
from time import perf_counter_ns

__all__ = ["Recorder", "LAYER_TARGETS", "calibrate_wrapper", "count_py_calls", "PY_CALL_LAYERS"]

#: (module, owner attribute or None for a module global, function names,
#: layer).  A module the workload never imported is skipped: the layer's
#: counts are then 0 because it cannot have run.
LAYER_TARGETS = (
    (
        "repro.marshal.buffer",
        "MarshalBuffer",
        (
            "__init__", "put_bool", "put_int8", "put_int32", "put_int64",
            "put_float64", "put_string", "put_bytes", "put_nil",
            "put_sequence_header", "put_object_header", "put_door_id",
            "get_bool", "get_int8", "get_int32", "get_int64", "get_float64",
            "get_string", "get_bytes", "get_nil", "get_sequence_header",
            "get_object_header", "get_door_id", "seal_for_transmission",
            "release", "recycle",
        ),
        "marshal.buffer",
    ),
    ("repro.kernel.domain", "Domain", ("acquire_buffer",), "marshal.buffer"),
    ("repro.kernel.nucleus", "Kernel", ("door_call",), "kernel.nucleus"),
    ("repro.kernel.clock", "SimClock", ("charge", "charge_bytes", "advance"), "kernel.clock"),
    (
        "repro.net.netserver",
        "NetworkServer",
        ("outbound", "inbound", "outbound_reply", "inbound_reply"),
        "net.netserver",
    ),
    ("repro.net.procfabric", "ProcFabric", ("call_raw",), "net.procfabric"),
    ("repro.net.procfabric", None, ("send_envelope",), "marshal.envelope"),
    ("repro.services.stable", "StableStore", ("commit",), "services.stable"),
    ("repro.runtime.saga", "SagaCoordinator", ("begin",), "runtime.saga"),
    ("repro.runtime.saga", "Saga", ("run", "commit"), "runtime.saga"),
    ("repro.runtime.idem", "DedupMemo", ("lookup", "record"), "runtime.idem"),
    (
        "repro.obs.tracer",
        "Tracer",
        ("begin_span", "begin_invoke", "begin_handler"),
        "obs.tracer",
    ),
    ("repro.obs.tracer", "Span", ("end",), "obs.tracer"),
    ("repro.obs.windows", "WindowedSeries", ("record_span", "record_event"), "obs.windows"),
)

#: ``recv_envelope`` runs on the procfabric reader thread, blocked on the
#: socket: its spans are recorded detached (no parent, not part of any
#: self time) — the wait they contain is already inside ``call_raw``.
DETACHED_TARGETS = (("repro.net.procfabric", None, ("recv_envelope",), "marshal.envelope"),)

_MISSING = object()


class Recorder:
    """Installs span-recording wrappers, collects spans, restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.detached: list = []
        self.stack: list[int] = []
        #: fn index -> (layer, name)
        self.names: list[tuple[str, str]] = []
        #: (owner, attribute, original or _MISSING) in install order
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _index(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def _wrapper(self, fn, layer: str, name: str):
        idx = self._index(layer, name)
        spans, stack, now = self.spans, self.stack, perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[sid] = (idx, t0, t1, stack[-1] if stack else -1)

        return wrapper

    def _detached_wrapper(self, fn, layer: str, name: str):
        idx = self._index(layer, name)
        detached, now = self.detached, perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                detached.append((idx, t0, now(), -1))

        return wrapper

    def wrap(self, owner, attr: str, layer: str, name: str, detached: bool = False) -> None:
        """Replace ``owner.attr`` (class, module or instance attribute)
        with a recording wrapper; :meth:`restore` puts the original back."""
        original = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr) if original is _MISSING else original
        make = self._detached_wrapper if detached else self._wrapper
        if isinstance(target, staticmethod):
            replacement = staticmethod(make(target.__func__, layer, name))
        else:
            replacement = make(target, layer, name)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, workload) -> None:
        """Wrap every layer boundary the workload's world can reach."""
        for targets, detached in ((LAYER_TARGETS, False), (DETACHED_TARGETS, True)):
            for module_name, owner_name, attrs, layer in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                owner = module if owner_name is None else getattr(module, owner_name)
                prefix = owner_name or module_name.rsplit(".", 1)[1]
                for attr in attrs:
                    self.wrap(owner, attr, layer, f"{prefix}.{attr}", detached)

        kernel = workload.env.kernel
        if kernel.fabric is not None:
            self.wrap(kernel, "fabric", "net.fabric", "NetworkFabric.carry")
        for door in kernel.doors.values():
            self.wrap(door, "handler", _door_layer(door.label), f"door:{door.label}")
        for domain, subcontract_id in workload.client_vectors:
            vector = type(domain.subcontract_registry.lookup(subcontract_id))
            for attr in ("invoke_preamble", "invoke"):
                self.wrap(vector, attr, "subcontracts", f"{vector.__name__}.{attr}")
        for binding in workload.bindings:
            for op in binding.operations:
                self.wrap(binding.stub_class, op, "core.stubs", f"{binding.name}.{op}")
            self.wrap(binding.skeleton, "dispatch", "idl.skeleton", f"{binding.name}.dispatch")
        for impl in workload.impl_classes:
            for attr, value in list(vars(impl).items()):
                if callable(value) and not attr.startswith("_"):
                    self.wrap(impl, attr, "handler", f"{impl.__name__}.{attr}")
        for attr in workload.app_methods:
            self.wrap(type(workload), attr, "handler", attr)

    def restore(self) -> None:
        """Put every original back, newest first, by identity."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def calls_under(self, child: str, parent_suffix: str) -> list[int]:
        """How many ``child`` spans each span named ``*parent_suffix``
        directly caused (parents that caused none are not listed)."""
        names = self.names
        under: dict[int, int] = {}
        for idx, _, _, parent in self.spans:
            if parent >= 0 and names[idx][1] == child:
                if names[self.spans[parent][0]][1].endswith(parent_suffix):
                    under[parent] = under.get(parent, 0) + 1
        return list(under.values())

    def aggregate(self, untraced_ns: float) -> dict:
        """Per-layer and per-function self time and call counts.

        Each span gives up the wrapper's cost as calibrated on an empty
        function: once for itself, once per child for what the child's
        wrapper added around the child's span.  What the wrappers cost
        the real program beyond that is diffuse (colder caches, call
        sites that no longer specialise) and lands on every layer in
        proportion to the time spent there, so every self time is then
        scaled by one factor that makes them sum to ``untraced_ns``, the
        time the same ops took with no wrapper installed.
        """
        spans = self.spans
        inner, outer = calibrate_wrapper()
        child_ns = [0] * len(spans)
        children = [0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                children[parent] += 1
        by_fn: dict[int, list] = {}
        recorded_ns = 0
        for sid, (idx, t0, t1, parent) in enumerate(spans):
            raw = (t1 - t0) - child_ns[sid]
            recorded_ns += raw
            entry = by_fn.setdefault(idx, [0, 0.0])
            entry[0] += 1
            entry[1] += raw - inner - children[sid] * outer
        scale = untraced_ns / sum(entry[1] for entry in by_fn.values())
        for idx, _, _, _ in self.detached:
            by_fn.setdefault(idx, [0, 0.0])[0] += 1
        layers: dict[str, dict] = {}
        functions: dict[str, dict] = {}
        for idx, (calls, self_ns) in by_fn.items():
            layer, name = self.names[idx]
            functions[name] = {"layer": layer, "calls": calls, "self_ns": self_ns * scale}
            agg = layers.setdefault(layer, {"calls": 0, "self_ns": 0.0})
            agg["calls"] += calls
            agg["self_ns"] += self_ns * scale
        return {
            "layers": layers,
            "functions": functions,
            "recorded_ns": recorded_ns,
            "wrapper_ns": {"inner": inner, "outer": outer, "scale": scale},
        }

    def write_jsonl(self, path: str) -> None:
        """One ``[op_id, layer, name, start_ns, end_ns, parent]`` per line;
        ``parent`` is the line index of the causing span, -1 for a root."""
        names = self.names
        root_starts = [s[1] for s in self.spans if s[3] < 0]
        with open(path, "w", encoding="utf-8") as out:
            op = -1
            for idx, t0, t1, parent in self.spans:
                if parent < 0:  # a span without a parent opens an op
                    op += 1
                layer, name = names[idx]
                out.write(f'[{op}, "{layer}", "{name}", {t0}, {t1}, {parent}]\n')
            for idx, t0, t1, parent in self.detached:
                layer, name = names[idx]
                op = bisect_right(root_starts, t1) - 1
                out.write(f'[{op}, "{layer}", "{name}", {t0}, {t1}, {parent}]\n')


def calibrate_wrapper(rounds: int = 20_000) -> tuple[float, float]:
    """Measure the wrapper on an empty function: what it adds inside its
    own span and what it adds to the parent around that span (ns)."""

    def empty():
        pass

    probe = Recorder()
    wrapped = probe._wrapper(empty, "calibration", "empty")
    calls = range(rounds)
    inners, outers = [], []
    for _ in range(5):
        del probe.spans[:]
        t0 = perf_counter_ns()
        for _ in calls:
            wrapped()
        t1 = perf_counter_ns()
        for _ in calls:
            empty()
        t2 = perf_counter_ns()
        inner = statistics.median(s[2] - s[1] for s in probe.spans)
        inners.append(inner)
        outers.append(max(((t1 - t0) - (t2 - t1)) / rounds - inner, 0.0))
    return statistics.median(inners), statistics.median(outers)


def _door_layer(label: str) -> str:
    if label.startswith("cache-front:"):
        return "services.cachemgr"
    if label.startswith("procfabric:"):
        return "net.procfabric"
    return "subcontracts"


# ----------------------------------------------------------------------
# counted pass
# ----------------------------------------------------------------------

PY_CALL_LAYERS = (
    "core", "idl", "marshal", "subcontracts", "kernel", "net", "services",
    "runtime", "obs",
)


def _classify(filename: str) -> str | None:
    if filename.startswith("<idl:"):
        return "idl"
    marker = filename.rfind("/repro/")
    if marker >= 0:
        package = filename[marker + 7 :].split("/", 1)[0]
        if package in PY_CALL_LAYERS:
            return package
    if filename.endswith("/suite/workloads.py"):
        return "handler"
    return None


def count_py_calls(run) -> dict[str, int]:
    """Python ``call`` events on this thread while ``run()`` executes,
    by layer of the called function's source file.  ``total`` sums the
    layers plus the suite's own handler code — interpreter and stdlib
    frames are not the program's calls and are left out."""
    by_file: dict[str, int] = {}

    def profiler(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            by_file[filename] = by_file.get(filename, 0) + 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    counts = dict.fromkeys(PY_CALL_LAYERS + ("handler",), 0)
    for filename, n in by_file.items():
        layer = _classify(filename)
        if layer is not None:
            counts[layer] += n
    counts["total"] = sum(counts.values())
    return counts
