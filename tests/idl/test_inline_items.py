"""Drift guard for the primitive items stubs and skeletons pack inline.

Generated code writes and reads bool, int32, int64, float64, string and
bytes items straight on a buffer's byte store, from the fragments
:mod:`repro.marshal.codec` defines, and charges each run of items with
one ``charge_bytes``.  The stream's own ``put_*`` stays the reference:
every call here must put the bytes on the wire that ``put_*`` appends,
item by item, and add the same byte charges in the same order.  A value
that cannot be packed must fail as ``put_*`` fails, with the items
before it charged and nothing after.
"""

from __future__ import annotations

import pytest

from repro.core.errors import RemoteApplicationError
from repro.core.stubs import STATUS_EXCEPTION, STATUS_OK
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.kernel.clock import SimClock
from repro.kernel.nucleus import Kernel
from repro.marshal.codec import TaggedStream
from repro.subcontracts.singleton import SingletonServer
from tests.conftest import make_domain
from tests.idl.test_stub_variants import ship

ITEMS_IDL = """
interface items {
    bool same_bool(bool v);
    int32 same_int32(int32 v);
    int64 same_int64(int64 v);
    float64 same_float64(float64 v);
    string same_string(string v);
    bytes same_bytes(bytes v);
    int32 every(bool a, int32 b, int64 c, float64 d, string e, bytes f);
}
"""


class ItemsImpl:
    def __init__(self):
        self.result = None  # when set, what every op returns instead

    def _same(self, v):
        return v if self.result is None else self.result

    same_bool = same_int32 = same_int64 = same_float64 = same_string = same_bytes = _same

    def every(self, a, b, c, d, e, f):
        return len(f)


#: where a varint length changes width, and either side of it
LENGTHS = [0, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152]

CASES = (
    [("bool", v) for v in (True, False)]
    + [("int32", v) for v in (0, -1, 2**31 - 1, -(2**31))]
    + [("int64", v) for v in (0, 2**63 - 1, -(2**63))]
    + [("float64", v) for v in (0.0, -2.5, 1e300)]
    + [("string", "s" * n) for n in LENGTHS]
    + [("bytes", bytes(range(256)) * (n // 256) + bytes(n % 256)) for n in LENGTHS]
    # multi-byte UTF-8 whose byte length sits either side of a varint step
    + [("string", c * n) for c, n in (("é", 63), ("é", 64), ("€", 5461), ("€", 5462), ("😀", 4))]
)


def item(kind, value):
    """The bytes ``put_<kind>(value)`` appends: what each item charges."""
    stream = TaggedStream()
    getattr(stream, "put_" + kind)(value)
    return bytes(stream.data)


@pytest.fixture
def wire(monkeypatch):
    """Clock charges (``charge_bytes`` runs kept whole) and each door
    call's request and reply bytes, in order."""
    made = []
    for name in ("charge", "charge_bytes"):
        original = getattr(SimClock, name)

        def recording(self, *args, _name=name, _original=original):
            made.append((_name, args))
            return _original(self, *args)

        monkeypatch.setattr(SimClock, name, recording)
    door_call = Kernel.door_call

    def recording_door_call(self, caller, door, buffer, *rest, **kwargs):
        made.append(("request", bytes(buffer.data)))
        reply = door_call(self, caller, door, buffer, *rest, **kwargs)
        made.append(("reply", bytes(reply.data)))
        return reply

    monkeypatch.setattr(Kernel, "door_call", recording_door_call)
    return made


@pytest.fixture(params=["general", "fused"])
def world(request):
    """``(variant, impl, obj)``: an ``items`` object served by a
    singleton, its calls made by the general or the fused stubs."""
    kernel = Kernel()
    server = make_domain(kernel, "server")
    client = make_domain(kernel, "client")
    module = compile_idl(ITEMS_IDL, f"tests.inline_items.{request.param}")
    if request.param == "fused":
        specialize(module, "items", "singleton")
    binding = module.binding("items")
    impl = ItemsImpl()
    exported = SingletonServer(server).export(impl, binding)
    return request.param, impl, ship(kernel, server, client, exported, binding)


@pytest.fixture
def codec_calls(monkeypatch, world):
    """Every call into the stream's own ``put_*``/``get_*`` code once the
    world is built."""
    made = []
    for name in dir(TaggedStream):
        if name.startswith(("put_", "get_")) or name == "_blob_end":
            original = getattr(TaggedStream, name)

            def recording(self, *args, _name=name, _original=original):
                made.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(TaggedStream, name, recording)
    return made


def byte_additions(made):
    """Every ``charge_bytes`` count, one entry per item, in order."""
    return [count for name, args in made if name == "charge_bytes" for count in args]


def runs(made):
    return sum(1 for name, _ in made if name == "charge_bytes")


@pytest.mark.parametrize("kind, value", CASES, ids=lambda x: repr(x)[:24])
def test_an_item_crosses_as_its_put_writes_it(world, wire, codec_calls, kind, value):
    _, _, obj = world
    op = "same_" + kind
    assert getattr(obj, op)(value) == value
    calls = list(codec_calls)
    # inline both ways, but for a length of more than three varint bytes
    raw = value.encode() if kind == "string" else value
    long = kind in ("string", "bytes") and len(raw) >= 0x200000
    assert sorted(calls) == (sorted(["put_varint", "_blob_end", "get_varint"] * 2) if long else [])
    request = item("string", op) + item(kind, value)
    reply = item("int8", STATUS_OK) + item(kind, value)
    sent = [entry[1] for entry in wire if entry[0] in ("request", "reply")]
    assert sent == [request, reply]
    assert byte_additions(wire) == [
        len(item("string", op)),
        len(item(kind, value)),
        len(item("int8", STATUS_OK)),
        len(item(kind, value)),
    ]
    assert runs(wire) == 2  # one per side


EVERY = [True, 7, -(2**40), 0.5, "five", b"\x00" * 200]


def test_a_run_of_every_kind_is_one_charge(world, wire):
    _, _, obj = world
    assert obj.every(*EVERY) == 200
    kinds = ["bool", "int32", "int64", "float64", "string", "bytes"]
    request = item("string", "every") + b"".join(map(item, kinds, EVERY))
    assert wire[[e[0] for e in wire].index("request")][1] == request
    assert byte_additions(wire) == [
        len(item("string", "every")),
        *(len(item(k, v)) for k, v in zip(kinds, EVERY)),
        2,
        5,
    ]
    assert runs(wire) == 2


#: (argument position, a value ``put_*`` refuses)
UNPACKABLE = [(1, 2**31), (5, "not bytes"), (4, b"not a str")]


@pytest.mark.parametrize("position, bad", UNPACKABLE, ids=["int32", "bytes", "string"])
def test_an_argument_that_cannot_be_packed_fails_as_put_fails(world, wire, position, bad):
    variant, _, obj = world
    kinds = ["bool", "int32", "int64", "float64", "string", "bytes"]
    args = list(EVERY)
    args[position] = bad
    with pytest.raises(Exception) as expected:
        getattr(TaggedStream(), "put_" + kinds[position])(bad)
    with pytest.raises(type(expected.value)) as raised:
        obj.every(*args)
    assert str(raised.value) == str(expected.value)
    # the op name and the arguments before the bad one, nothing after
    before = [len(item(k, v)) for k, v in zip(kinds[:position], args)]
    assert wire == [
        ("charge", ("local_call",)),
        *([("charge", ("indirect_call",))] if variant == "general" else []),  # preamble
        *[("charge_bytes", (n,)) for n in [len(item("string", "every")), *before]],
    ]


@pytest.mark.parametrize("kind, bad", [("int32", 2**31), ("bytes", "x"), ("string", b"x")])
def test_a_result_that_cannot_be_packed_fails_as_put_fails(world, wire, kind, bad):
    _, impl, obj = world
    impl.result = bad
    good = {"int32": 1, "bytes": b"", "string": ""}[kind]
    with pytest.raises(Exception) as expected:
        getattr(TaggedStream(), "put_" + kind)(bad)
    with pytest.raises(RemoteApplicationError) as raised:
        getattr(obj, "same_" + kind)(good)
    assert (raised.value.remote_type, raised.value.message) == (
        type(expected.value).__name__,
        str(expected.value),
    )
    exception = [
        item("int8", STATUS_EXCEPTION),
        item("string", type(expected.value).__name__),
        item("string", str(expected.value)),
    ]
    assert wire[[e[0] for e in wire].index("reply")][1] == b"".join(exception)
    # the OK status is charged, rolled back, then the exception written
    server = byte_additions(wire)[2:]
    assert server == [2, *map(len, exception)]
