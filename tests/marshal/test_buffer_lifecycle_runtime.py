"""Runtime buffer-lifecycle enforcement: the errors springlint's
buffer-lifecycle rule predicts must actually fire, loudly and clearly,
when the misuse happens at runtime."""

from __future__ import annotations

import pytest

import repro.marshal.buffer as buffer_mod
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.errors import BufferLifecycleError, MarshalError


def noop_handler(kernel):
    def handler(request):
        return MarshalBuffer(kernel)

    return handler


#: every put_*/get_*/peek_* a buffer has, inherited or its own
STREAM_METHODS = sorted(
    name for name in dir(MarshalBuffer) if name.startswith(("put_", "get_", "peek_"))
)

#: method -> (domain, identifier, transit ref) -> call arguments
STREAM_ARGS = {
    "put_bool": lambda d, i, t: (True,),
    "put_int8": lambda d, i, t: (1,),
    "put_int32": lambda d, i, t: (1,),
    "put_int64": lambda d, i, t: (1,),
    "put_float64": lambda d, i, t: (1.0,),
    "put_string": lambda d, i, t: ("x",),
    "put_bytes": lambda d, i, t: (b"x",),
    "put_nil": lambda d, i, t: (),
    "put_varint": lambda d, i, t: (1,),
    "put_sequence_header": lambda d, i, t: (1,),
    "put_object_header": lambda d, i, t: ("singleton",),
    "put_trace_ctx": lambda d, i, t: (1, 2),
    "put_door_slot": lambda d, i, t: (0,),
    "put_door_id": lambda d, i, t: (d, i),
    "put_door_transit": lambda d, i, t: (t,),
    "get_bool": lambda d, i, t: (),
    "get_int8": lambda d, i, t: (),
    "get_int32": lambda d, i, t: (),
    "get_int64": lambda d, i, t: (),
    "get_float64": lambda d, i, t: (),
    "get_string": lambda d, i, t: (),
    "get_bytes": lambda d, i, t: (),
    "get_nil": lambda d, i, t: (),
    "get_varint": lambda d, i, t: (),
    "get_sequence_header": lambda d, i, t: (),
    "get_object_header": lambda d, i, t: (),
    "get_trace_ctx": lambda d, i, t: (),
    "get_door_slot": lambda d, i, t: (),
    "get_door_id": lambda d, i, t: (d,),
    "get_door_transit": lambda d, i, t: (),
    "peek_tag": lambda d, i, t: (),
    "peek_object_header": lambda d, i, t: (),
}


class TestDoubleRelease:
    def test_double_release_raises(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()
        with pytest.raises(BufferLifecycleError, match="double release"):
            buffer.release()

    def test_lifecycle_error_is_a_marshal_error(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()
        with pytest.raises(MarshalError):
            buffer.release()

    def test_pool_survives_the_misuse(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()
        with pytest.raises(BufferLifecycleError):
            buffer.release()
        assert domain._buffer_pool.count(buffer) == 1
        reused = domain.acquire_buffer()
        assert reused is buffer
        reused.put_int32(7)
        reused.release()

    def test_unpooled_buffer_release_stays_a_noop(self, kernel):
        buffer = MarshalBuffer(kernel)
        buffer.put_int32(1)
        buffer.release()
        buffer.release()  # unpooled: no pool to corrupt, no error

    def test_debug_mode_names_the_first_release_site(self, kernel, monkeypatch):
        monkeypatch.setattr(buffer_mod, "_DEBUG", True)
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()  # this line should appear in the error
        with pytest.raises(BufferLifecycleError) as excinfo:
            buffer.release()
        message = str(excinfo.value)
        assert "first released at" in message
        assert "test_buffer_lifecycle_runtime" in message

    def test_without_debug_the_error_tells_you_how_to_get_the_site(
        self, kernel, monkeypatch
    ):
        monkeypatch.setattr(buffer_mod, "_DEBUG", False)
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()
        with pytest.raises(BufferLifecycleError, match="REPRO_DEBUG=1"):
            buffer.release()


class TestReleaseInTransit:
    def test_release_with_live_transit_doors_raises(self, kernel):
        server = kernel.create_domain("server")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = server.acquire_buffer()
        buffer.put_door_id(server, ident)
        with pytest.raises(BufferLifecycleError, match="in-transit door"):
            buffer.release()

    def test_recycle_is_the_sanctioned_cleanup(self, kernel):
        server = kernel.create_domain("server")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = server.acquire_buffer()
        buffer.put_door_id(server, ident)
        buffer.recycle()  # discards the transit ref, then releases
        assert server._buffer_pool.count(buffer) == 1

    def test_discard_then_release_also_works(self, kernel):
        server = kernel.create_domain("server")
        ident = kernel.create_door(server, noop_handler(kernel))
        buffer = server.acquire_buffer()
        buffer.put_door_id(server, ident)
        buffer.discard()
        buffer.release()
        assert server._buffer_pool.count(buffer) == 1

    def test_recycle_on_clean_buffer_is_just_release(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.put_int32(3)
        buffer.recycle()
        assert domain._buffer_pool.count(buffer) == 1


class TestUseAfterRelease:
    def test_put_after_release_raises(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.release()
        with pytest.raises(BufferLifecycleError, match="use-after-release"):
            buffer.put_int32(1)

    def test_get_after_release_raises(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.put_int32(1)
        buffer.rewind()
        buffer.release()
        with pytest.raises(BufferLifecycleError, match="use-after-release"):
            buffer.get_int32()

    def test_stale_handle_fails_even_after_reacquisition(self, kernel):
        # Releasing hands the buffer to the pool; a caller that kept the
        # old reference and the new owner must not share streams.  The
        # stale handle is the same object, so after reacquire the new
        # owner's streams are live again — this test pins the window in
        # between: released but not yet reacquired.
        domain = kernel.create_domain("d")
        stale = domain.acquire_buffer()
        stale.release()
        with pytest.raises(BufferLifecycleError):
            stale.put_string("stale write")
        fresh = domain.acquire_buffer()
        assert fresh is stale  # pool handed the object back
        fresh.put_string("fresh write is fine")
        fresh.release()

    def test_reacquired_buffer_streams_work(self, kernel):
        domain = kernel.create_domain("d")
        buffer = domain.acquire_buffer()
        buffer.put_int32(41)
        buffer.release()
        again = domain.acquire_buffer()
        again.put_int32(42)
        again.rewind()
        assert again.get_int32() == 42
        again.release()

    def test_every_stream_method_is_covered(self):
        assert set(STREAM_METHODS) == set(STREAM_ARGS)

    @pytest.mark.parametrize("method", STREAM_METHODS)
    def test_stream_method_refused_after_release(self, kernel, method):
        domain = kernel.create_domain("d")
        ident = kernel.create_door(domain, noop_handler(kernel))
        transit = kernel.detach_door_id(
            domain, kernel.create_door(domain, noop_handler(kernel))
        )
        buffer = domain.acquire_buffer()
        buffer.put_int32(1)
        buffer.rewind()
        buffer.release()
        before = kernel.clock.now_us

        with pytest.raises(BufferLifecycleError, match="use-after-release"):
            getattr(buffer, method)(*STREAM_ARGS[method](domain, ident, transit))

        assert kernel.clock.now_us == before  # a refused put charges nothing
        assert domain.owns(ident) and ident.valid  # the identifier never left
        again = domain.acquire_buffer()  # raises if the refusal left a trace
        assert again is buffer
        assert (again.size, again.doors, again.pos) == (0, [], 0)
        again.put_int32(2)
        again.rewind()
        assert again.get_int32() == 2
        again.release()
        kernel.discard_transit(transit)
