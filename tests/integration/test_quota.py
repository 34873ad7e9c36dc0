"""The thesis test for the seams: a call-path feature from outside ``src/``.

``tests/quota.py`` defines a per-caller quota — a context key naming the
caller, a launch stage that stamps it and a gate that refuses calls over
budget — with no edit under ``src/``.  These tests install it into the
kernel's seams on every way a call reaches a door (the local tail of
``door_call``, the sim fabric, a worker replaying an envelope; for the
worker, the quota is in the kernel that serves it), and
``docs/architecture.md`` prints the same code as its "Adding a feature"
sample, which the last test executes.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.marshal import context
from repro.marshal.buffer import MarshalBuffer
from repro.marshal.envelope import KIND_CALL, Envelope
from repro.net.procworker import _serve_call
from tests import quota as quota_module
from tests.kernel.test_call_path import CELLS, ENTRIES, World
from tests.quota import CALLER, Quota, QuotaExceeded


def call_as(world: World, name: str, n: int) -> int:
    """One call on the probe door from a second caller, ``name``."""
    kernel = world.kernel
    if world.entry == "worker":
        # The supervisor's launch stamped the caller; it crossed in the
        # envelope's context section.
        request = MarshalBuffer(kernel)
        request.put_int32(n)
        envelope = Envelope(
            KIND_CALL, call_id=2, target=0, ctx={CALLER: name}, payload=bytes(request.data)
        )
        reply = _serve_call(kernel, {0: world.door}, envelope)
        reply.rewind()
    else:
        caller = world.env.create_domain(world.client.machine.name, name)
        ident = world.grant(world.ident, world.client, caller)
        buffer = caller.acquire_buffer()
        buffer.put_int32(n)
        try:
            reply = kernel.door_call(caller, ident, buffer)
        finally:
            buffer.recycle()
    value = reply.get_int32()
    reply.recycle()
    return value


@pytest.mark.parametrize("entry,traced", CELLS)
def test_a_call_over_quota_is_refused_before_the_traversal(entry, traced):
    world = World(entry, traced)
    quota = Quota(limit=2)
    world.kernel.interpose(quota)
    assert [world.call(n) for n in (1, 2)] == [2, 3]
    handled, charged = world.door.calls_handled, world.door_call_charges()
    with pytest.raises(QuotaExceeded, match="spent its 2 calls"):
        world.call(3)
    assert world.door.calls_handled == handled
    assert world.door_call_charges() == charged
    assert world.runs == 2
    world.kernel.withdraw(quota)
    assert world.call(3) == 4


@pytest.mark.parametrize("entry", ENTRIES)
def test_each_caller_spends_its_own_quota(entry):
    world = World(entry, traced=False)
    quota = Quota(limit=1)
    world.kernel.interpose(quota)
    assert world.call(1) == 2
    with pytest.raises(QuotaExceeded):
        world.call(1)
    assert call_as(world, "west", 5) == 6
    with pytest.raises(QuotaExceeded, match="'west'"):
        call_as(world, "west", 5)
    assert sorted(quota.spent.values()) == [1, 1]


def test_the_caller_key_stays_on_its_hop():
    world = World("local", traced=False)
    world.kernel.interpose(Quota(limit=8))
    seen = []
    world.on_call = lambda: seen.append(world.kernel.context.value)
    world.call(1)
    assert seen == [None]


class TestDocumentedRecipe:
    """docs/architecture.md's "Adding a feature" prints tests/quota.py;
    run the printed code so neither can drift."""

    def test_feature_sample_runs_as_printed(self, scratch_keys):
        guide = pathlib.Path(__file__).parents[2] / "docs" / "architecture.md"
        section = guide.read_text().split("## Adding a feature")[1]
        sample = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
        source = pathlib.Path(quota_module.__file__).read_text()
        assert sample == source.split("# -- sample --\n")[1]
        del context.KEYS[CALLER]  # the printed copy registers the same id
        printed: dict = {}
        exec(compile(sample, str(guide), "exec"), printed)

        world = World("fabric", traced=True)
        world.kernel.interpose(printed["Quota"](limit=1))
        assert world.call(1) == 2
        with pytest.raises(printed["QuotaExceeded"]):
            world.call(1)
