"""Idempotency keys and the server-side dedup layer (exactly-once PR).

The contract under test: a key names one logical request; it rides the
buffer out-of-band like the deadline; a server-side memo replays the
recorded reply on a retry instead of re-executing; and none of it costs
the unkeyed path more than one attribute read and a branch.
"""

from __future__ import annotations

import pytest

from repro.kernel.nucleus import Kernel
from repro.runtime.env import Environment
from repro.runtime.idem import (
    IDEM,
    DedupMemo,
    current_idempotency_key,
    idempotency_key,
    next_idempotency_key,
)
from repro.services.stable import DurableKVService


@pytest.fixture
def bank():
    """A durable account service on one machine, a client on another."""
    env = Environment()
    service = DurableKVService(env, "bank", "/services/acct")
    teller = env.create_domain("clients", "teller")
    acct = service.client_for(teller)
    acct.put("balance", "100")
    return env, service, acct


class TestKeyPlumbing:
    def test_context_sets_and_restores(self, kernel):
        assert current_idempotency_key(kernel) is None
        with idempotency_key(kernel, 7):
            assert current_idempotency_key(kernel) == 7
            with idempotency_key(kernel, 8):
                assert current_idempotency_key(kernel) == 8
            assert current_idempotency_key(kernel) == 7
        assert current_idempotency_key(kernel) is None

    def test_key_must_be_u64(self, kernel):
        with pytest.raises(ValueError):
            with idempotency_key(kernel, -1):
                pass
        with pytest.raises(ValueError):
            with idempotency_key(kernel, 1 << 64):
                pass

    def test_keys_are_kernel_scoped(self):
        # Two kernels allocate identical sequences: no process-global
        # counter, so seed-swept replays are immune to test ordering.
        a, b = Kernel(), Kernel()
        assert [next_idempotency_key(a) for _ in range(3)] == [1, 2, 3]
        assert [next_idempotency_key(b) for _ in range(3)] == [1, 2, 3]

    def test_key_stamped_on_buffer_and_cleared_on_release(self, env):
        seen = {}
        server = env.create_domain("m", "server")
        client = env.create_domain("m", "client")

        def handler(request):
            seen["key"] = request.ctx.get(IDEM)
            seen["buffer"] = request
            return server.acquire_buffer()

        ident = env.kernel.create_door(server, handler)
        dup = env.kernel.copy_door_id(server, ident)
        transit = env.kernel.detach_door_id(server, dup)
        ident = env.kernel.attach_door_id(client, transit)
        buffer = client.acquire_buffer()
        with idempotency_key(env.kernel, 42):
            reply = env.kernel.door_call(client, ident, buffer)
        assert seen["key"] == 42
        buffer.release()
        reply.release()
        # The pooled buffer must not leak the key into its next life.
        assert seen["buffer"].ctx is None

    def test_nested_calls_do_not_inherit_the_key(self, bank):
        # A handler's own outgoing calls are new logical requests: the
        # kernel clears the thread slot while the handler runs.  Observed
        # through the service: two adjusts under ONE key from the client
        # dedup (same key, same door), but the service's internal stable
        # commits are not confused.
        env, service, acct = bank
        kernel = env.kernel
        with idempotency_key(kernel, 999):
            first = acct.adjust("balance", -1)
        with idempotency_key(kernel, 999):
            second = acct.adjust("balance", -1)
        assert first == second == "99"
        assert acct.get("balance") == "99"


class TestDedupMemo:
    def test_must_be_bounded(self):
        with pytest.raises(ValueError, match="bounded"):
            DedupMemo(entries=0)
        with pytest.raises(ValueError, match="bounded"):
            DedupMemo(entries=None)  # type: ignore[arg-type]

    def test_fifo_eviction(self, env):
        domain = env.create_domain("m", "d")
        memo = DedupMemo(entries=2)
        for key in (1, 2, 3):
            reply = domain.acquire_buffer()
            reply.data.extend(bytes([key]))
            assert memo.record(key, reply)
            reply.release()
        assert memo.lookup(1) is None  # evicted, oldest first
        assert memo.lookup(2) == b"\x02"
        assert memo.lookup(3) == b"\x03"
        assert memo.evicted == 1

    def test_oversized_and_door_carrying_replies_refused(self, env):
        domain = env.create_domain("m", "d")
        memo = DedupMemo(reply_cap=4)
        reply = domain.acquire_buffer()
        reply.data.extend(b"too big for cap")
        assert not memo.record(1, reply)
        reply.release()

    def test_counters(self, env):
        domain = env.create_domain("m", "d")
        memo = DedupMemo()
        assert memo.lookup(5) is None
        reply = domain.acquire_buffer()
        reply.data.extend(b"ok")
        memo.record(5, reply)
        reply.release()
        assert memo.lookup(5) == b"ok"
        assert (memo.hits, memo.misses, memo.recorded) == (1, 1, 1)


class TestDedupOnSimFabric:
    def test_lost_reply_retry_replays_recorded_reply(self, bank):
        # THE scenario: the server executes, the reply evaporates on the
        # wire, the client's retry must get the first execution's reply —
        # not a second execution.
        env, service, acct = bank
        kernel = env.kernel
        plane = env.install_chaos(seed=7)
        plane.drop_next_carry("reply")
        with idempotency_key(kernel, next_idempotency_key(kernel)):
            result = acct.adjust("balance", -30)
        assert result == "70"
        assert acct.get("balance") == "70"  # exactly once, not 40
        memo = service.dedup_memo
        assert memo.hits == 1
        assert service.store._records["/services/acct"]["balance"] == "70"
        assert plane.injected.get("carry_drop") == 1

    def test_dedup_hit_does_not_trip_the_breaker(self, bank):
        # The retry that hits the memo is a success; breakers must see
        # it as one (hits don't count as failures, the call returns).
        env, service, acct = bank
        from repro.subcontracts.reconnectable import (
            DEFAULT_RETRY_POLICY,
            ReconnectableClient,
        )

        policy = DEFAULT_RETRY_POLICY.derive(breaker_threshold=3)
        old = ReconnectableClient.retry_policy
        ReconnectableClient.retry_policy = policy
        try:
            plane = env.install_chaos(seed=7)
            plane.drop_next_carry("reply")
            with idempotency_key(env.kernel, next_idempotency_key(env.kernel)):
                assert acct.adjust("balance", -10) == "90"
            assert policy.breaker.state("/services/acct") == "closed"
        finally:
            ReconnectableClient.retry_policy = old

    def test_unkeyed_calls_never_touch_the_memo(self, bank):
        env, service, acct = bank
        acct.put("k", "v")
        assert acct.get("k") == "v"
        memo = service.dedup_memo
        assert (memo.hits, memo.misses, memo.recorded) == (0, 0, 0)


class TestDurableMemo:
    def test_memo_survives_restart(self, bank):
        # A client retrying across a crash+restart still deduplicates:
        # the recorded reply came back in the new incarnation's recovery
        # scan.
        env, service, acct = bank
        kernel = env.kernel
        key = next_idempotency_key(kernel)
        with idempotency_key(kernel, key):
            assert acct.adjust("balance", -25) == "75"
        service.restart()
        with idempotency_key(kernel, key):
            assert acct.adjust("balance", -25) == "75"  # replayed
        assert acct.get("balance") == "75"
        assert service.dedup_memo.hits == 1

    def test_eviction_deletes_the_durable_record(self, env):
        from repro.services.stable import stable_store_for

        store = stable_store_for(env.machine("m"))
        domain = env.create_domain("m", "d")
        memo = DedupMemo(entries=1, store=store, record="/memo")
        for key in (1, 2):
            reply = domain.acquire_buffer()
            reply.data.extend(bytes([key]))
            memo.record(key, reply)
            reply.release()
        assert store._records["/memo"] == {f"{2:016x}": "02"}
