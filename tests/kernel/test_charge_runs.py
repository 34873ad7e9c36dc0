"""One ``charge_bytes`` call for a run of items is the same time as one
call per item: each count adds ``unit * count``, in the order given.

Float addition is not associative, so a run that summed its counts first,
or added them in another order, would drift from the per-item charges
the simulated totals are pinned to.  The counts below are ones whose
order shows in the last bit.
"""

from __future__ import annotations

from repro.kernel.clock import SimClock

COUNTS = [55201, 66486, 50577, 45995]


def charged(*runs):
    clock = SimClock()
    clock.advance(111.6323177439888)  # a start whose low bits the order moves
    returned = [clock.charge_bytes(*run) for run in runs]
    return repr(clock.now_us), {k: repr(v) for k, v in clock.tally().items()}, returned


def test_a_run_adds_each_count_in_order():
    now, tally, _ = charged(*([count] for count in COUNTS))
    assert charged(COUNTS)[:2] == (now, tally)
    assert charged(COUNTS[::-1])[:2] != (now, tally)  # the order does show


def test_a_run_returns_what_it_charged():
    unit = SimClock().model.marshal_byte_us
    assert charged([5])[2] == [unit * 5]
    assert charged([5, 7])[2] == [unit * 5 + unit * 7]
