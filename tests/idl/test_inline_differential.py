"""Differential test: the inline item fragments against the stream's own
``put_*`` and ``get_*``.

Generated stubs and skeletons pack runs of primitive items straight onto
a buffer's byte store and read them back inline, from the fragment text
:data:`repro.marshal.codec.FRAGMENTS`, spliced by the code generator.
Here hypothesis draws runs of items of every inline kind (varint width
edges, non-ASCII text, ints out of range) and holds the generated code
to the reference:

* writing a run gives the bytes and the ``charge_bytes`` counts that
  ``put_*`` item by item gives, or fails with the same exception type
  after the same bytes and charges;
* reading a run cut at every length gives the values ``get_*`` gives,
  or the same exception type, and leaves the cursor where ``get_*``
  leaves it;
* a reply's status followed by its result, over every status byte, wrong
  tags and every cut length, reads as ``get_int8`` followed by the two
  status raises, the unknown-status error and ``get_*`` read it.
"""

from __future__ import annotations

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.core.errors import RemoteApplicationError, RevokedObjectError
from repro.core.stubs import STATUS_EXCEPTION, STATUS_OK, STATUS_REVOKED, read_status
from repro.idl.codegen import _Emitter, _emit_put_run, _emit_reads
from repro.marshal.codec import FRAGMENT_GLOBALS, TaggedStream, WireTag
from repro.marshal.errors import MarshalError

KINDS = ("bool", "int8", "int32", "int64", "float64", "string", "bytes")

#: payload lengths where a varint length changes width, either side
EDGES = [127, 128, 16_383, 16_384, 2_097_151, 2_097_152]

#: a read of an encoding longer than this is cut at its first and last
#: bytes only (every branch of a read is decided there)
CUT_ALL = 20_000


def _int(bits):
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return st.one_of(
        st.integers(low, high),
        st.sampled_from([low, high, low - 1, high + 1, 2**64]),  # the last three fail
    )


def _sized(alphabet, encode):
    """Text or bytes whose encoded length sits at a varint width edge."""
    return st.builds(
        lambda unit, size: unit * (size // len(encode(unit))),
        st.sampled_from(alphabet),
        st.sampled_from(EDGES),
    )


VALUES = {
    "bool": st.booleans(),
    "int8": _int(8),
    "int32": _int(32),
    "int64": _int(64),
    "float64": st.floats(),
    "string": st.one_of(
        st.text(max_size=40),  # non-ASCII and surrogates (which fail) included
        _sized(["s", "é", "€", "😀"], lambda c: c.encode()),
        st.just(b"not a str"),
    ),
    "bytes": st.one_of(st.binary(max_size=40), _sized([b"b"], bytes), st.just("not bytes")),
}

RUNS = st.lists(
    st.sampled_from(KINDS).flatmap(lambda kind: st.tuples(st.just(kind), VALUES[kind])),
    min_size=1,
    max_size=4,
)


class Charges:
    """A clock that records every ``charge_bytes`` count, in order."""

    def __init__(self):
        self.counts = []

    def charge_bytes(self, *counts):
        self.counts.extend(counts)


def _load(body: _Emitter, signature: str):
    namespace = dict(FRAGMENT_GLOBALS, read_status=read_status)
    exec(compile(f"def run({signature}):\n" + body.source(), "<fragments>", "exec"), namespace)
    return namespace["run"]


@functools.cache
def put_run(kinds):
    """The generated code that packs ``values`` as one run of ``kinds``."""
    body = _Emitter(indent=1)
    _emit_put_run(body, "buf", [(kind, f"values[{i}]", None) for i, kind in enumerate(kinds)])
    return _load(body, "buf, values")


@functools.cache
def get_run(kinds):
    """The generated code that reads a run of ``kinds`` inline."""
    body = _Emitter(indent=1)
    _emit_reads(body, "buf", [(f"v{i}", kind) for i, kind in enumerate(kinds)])
    body.line(f"return [{', '.join(f'v{i}' for i in range(len(kinds)))}]")
    return _load(body, "buf")


def write(how, kinds, values):
    stream = TaggedStream()
    stream._clock = Charges()
    try:
        how(stream, kinds, values)
        failure = None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        failure = type(exc)
    return bytes(stream.data), stream._clock.counts, failure


def by_fragments(stream, kinds, values):
    put_run(kinds)(stream, values)


def by_put(stream, kinds, values):
    for kind, value in zip(kinds, values):
        getattr(stream, "put_" + kind)(value)


def read(how, kinds, data):
    stream = TaggedStream(data)
    try:
        outcome = repr(how(stream, kinds))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        outcome = type(exc)
    return outcome, stream.pos


def by_fragment_reads(stream, kinds):
    return get_run(kinds)(stream)


def by_get(stream, kinds):
    return [getattr(stream, "get_" + kind)() for kind in kinds]


def cuts(size):
    if size <= CUT_ALL:
        return range(size + 1)
    return [*range(8), size - 1, size]


@settings(max_examples=40, deadline=None)
@given(RUNS)
@example([("string", "s" * 16_384), ("bytes", b"b" * 128)])
@example([("bytes", b"b" * 2_097_152), ("string", "é" * 64)])
@example([("string", "€" * 5_462), ("int32", 2**31)])
def test_fragments_write_and_read_a_run_as_the_stream_does(run):
    kinds = tuple(kind for kind, _ in run)
    values = [value for _, value in run]
    data, charges, failure = write(by_put, kinds, values)
    assert write(by_fragments, kinds, values) == (data, charges, failure)
    for cut in cuts(len(data)):
        prefix = data[:cut]
        assert read(by_fragment_reads, kinds, prefix) == read(by_get, kinds, prefix)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4), st.binary(max_size=24))
def test_fragments_read_arbitrary_bytes_as_the_stream_does(kinds, data):
    kinds = tuple(kinds)
    assert read(by_fragment_reads, kinds, data) == read(by_get, kinds, data)


@functools.cache
def get_reply(kind):
    """The generated code that reads a reply's status, then a ``kind`` result."""
    body = _Emitter(indent=1)
    _emit_reads(body, "buf", [("_status", "status"), ("result", kind)])
    body.line("return result")
    return _load(body, "buf")


def by_reply_reads(stream, kind):
    return get_reply(kind)(stream)


def by_status_get(stream, kind):
    status = stream.get_int8()
    if status == STATUS_EXCEPTION:
        raise RemoteApplicationError(stream.get_string(), stream.get_string())
    if status == STATUS_REVOKED:
        raise RevokedObjectError(stream.get_string())
    if status != STATUS_OK:
        raise MarshalError(f"unknown reply status {status}")
    return getattr(stream, "get_" + kind)()


#: one result of each kind
RESULTS = {
    "bool": True,
    "int8": -3,
    "int32": 2**31 - 1,
    "int64": -(2**40),
    "float64": 0.5,
    "string": "é",
    "bytes": b"\x00\xff",
}

#: what follows a status byte: a result, the exception's or the revoked
#: status's strings
TAILS = {STATUS_EXCEPTION: ["string", "string"], STATUS_REVOKED: ["string"]}


def reply(tag, status, kind):
    stream = TaggedStream(bytearray([tag, status]))
    for tail_kind in TAILS.get(status, [kind]):
        getattr(stream, "put_" + tail_kind)(RESULTS[tail_kind])
    return bytes(stream.data)


@pytest.mark.parametrize("kind", KINDS)
def test_a_status_then_a_result_reads_as_the_stream_does(kind):
    right = int(WireTag.INT8)
    replies = [reply(right, status, kind) for status in range(256)]
    for wrong in (int(WireTag.INT32), int(WireTag.STRING)):
        replies += [reply(wrong, status, kind) for status in (0, 1, 2, 7)]
    for data in replies:
        for cut in range(len(data) + 1):
            prefix = data[:cut]
            assert read(by_reply_reads, kind, prefix) == read(by_status_get, kind, prefix), prefix
